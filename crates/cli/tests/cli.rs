//! End-to-end tests driving the `rim` binary.

use std::path::PathBuf;
use std::process::Command;

fn rim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rim"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rim_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_lists_all_commands() {
    let out = rim().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in ["generate", "control", "analyze", "optimal", "simulate", "churn", "schedule"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage_hint() {
    let out = rim().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn generate_control_analyze_pipeline() {
    let dir = tmp_dir("pipeline");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");

    let out = rim()
        .args([
            "generate", "--kind", "uniform-square", "--n", "40", "--side", "1.5", "--seed",
            "7", "--out",
        ])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = rim()
        .args(["control", "--algo", "mst", "--nodes"])
        .arg(&nodes)
        .arg("--out")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let topo_text = std::fs::read_to_string(&topo).unwrap();
    assert!(topo_text.contains("preserves connectivity = true"));

    let out = rim()
        .args(["analyze", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("receiver interference"));
    assert!(text.contains("preserves connectivity:   true"));
    assert!(text.contains("interference engine:      auto"));

    // Every explicit engine selection must report the same numbers.
    let mut reports = Vec::new();
    for engine in ["naive", "auto"] {
        let out = rim()
            .args(["analyze", "--engine", engine, "--nodes"])
            .arg(&nodes)
            .arg("--topology")
            .arg(&topo)
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(&format!("interference engine:      {engine}")));
        let numbers: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("receiver interference") || l.starts_with("mean node"))
            .map(String::from)
            .collect();
        reports.push(numbers);
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]), "engines disagree: {reports:?}");
}

#[test]
fn analyze_reports_udg_counts_and_both_partition_mismatches() {
    // `analyze` counts the UDG without building it and compares component
    // labels; these reports are the ones the adjacency-building `analyze`
    // printed. NNF splits UDG components, and a link longer than the range
    // joins two, so both directions of the partition check fail once.
    let dir = tmp_dir("analyze_partitions");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("nnf.txt");
    let analyze = |nodes: &PathBuf, topo: &PathBuf| {
        let mut cmd = rim();
        let out = cmd.arg("analyze").arg("--nodes").arg(nodes).arg("--topology").arg(topo).output();
        let out = out.unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let generate =
        ["generate", "--kind", "uniform-square", "--n", "300", "--side", "8", "--seed", "4"];
    assert!(rim().args(generate).arg("--out").arg(&nodes).status().unwrap().success());
    let control = ["control", "--algo", "nnf", "--nodes"];
    assert!(rim().args(control).arg(&nodes).arg("--out").arg(&topo).status().unwrap().success());
    assert_eq!(
        analyze(&nodes, &topo),
        "nodes:                    300\n\
         interference engine:      auto\n\
         udg edges / max degree:   1963 / 24\n\
         topology edges:           208\n\
         is forest:                true\n\
         preserves connectivity:   false\n\
         receiver interference I:  5\n\
         mean node interference:   1.620\n\
         sender-centric measure:   9\n\
         energy (alpha = 2):       30.6368\n\
         worst node:               59 (I = 5)\n"
    );
    // Two UDG components, {0, 1} and {2, 3}, joined by the 2.5-long link
    // {1, 2}; the chord {0, 2} then closes a cycle.
    std::fs::write(&nodes, "0 0\n0.5 0\n3 0\n3.5 0\n").unwrap();
    std::fs::write(&topo, "0 1\n1 2\n2 3\n").unwrap();
    let head = "nodes:                    4\n\
                interference engine:      auto\n\
                udg edges / max degree:   2 / 1\n";
    assert_eq!(
        analyze(&nodes, &topo),
        format!(
            "{head}\
             topology edges:           3\n\
             is forest:                true\n\
             preserves connectivity:   false\n\
             receiver interference I:  2\n\
             mean node interference:   1.500\n\
             sender-centric measure:   4\n\
             energy (alpha = 2):       13.0000\n\
             worst node:               1 (I = 2)\n"
        )
    );
    std::fs::write(&topo, "0 1\n1 2\n2 3\n0 2\n").unwrap();
    assert_eq!(
        analyze(&nodes, &topo),
        format!(
            "{head}\
             topology edges:           4\n\
             is forest:                false\n\
             preserves connectivity:   false\n\
             receiver interference I:  3\n\
             mean node interference:   2.000\n\
             sender-centric measure:   4\n\
             energy (alpha = 2):       24.5000\n\
             worst node:               2 (I = 3)\n"
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn control_engines_agree_byte_for_byte() {
    let dir = tmp_dir("control_engines");
    let nodes = dir.join("nodes.txt");
    assert!(rim()
        .args(["generate", "--kind", "uniform-square", "--n", "120", "--side", "2.0", "--seed",
               "11", "--out"])
        .arg(&nodes)
        .status()
        .unwrap()
        .success());
    for algo in ["gg", "rng", "lmst", "xtc", "yao6"] {
        let mut outputs = Vec::new();
        for engine in ["naive", "auto"] {
            let out_file = dir.join(format!("{algo}_{engine}.txt"));
            let out = rim()
                .args(["control", "--algo", algo, "--engine", engine, "--nodes"])
                .arg(&nodes)
                .arg("--out")
                .arg(&out_file)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "algo {algo} engine {engine}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            outputs.push(std::fs::read_to_string(&out_file).unwrap());
        }
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "algo {algo}: engines produced different topology files"
        );
    }
}

#[test]
fn control_timing_reports_stages_on_stderr() {
    let dir = tmp_dir("control_timing");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0.0\n0.4\n0.8\n1.2\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "gg", "--obs", "human", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    for stage in ["load", "udg", "construct", "write"] {
        assert!(err.contains(stage), "timing line missing `{stage}`: {err}");
    }
    // Topology output on stdout stays machine-readable: index pairs and
    // `#` comments only, no timing text.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("timing"), "{stdout}");
    assert!(stdout.lines().all(|l| l.starts_with('#') || l.split_whitespace().count() == 2));
}

#[test]
fn control_rejects_unknown_engine() {
    let dir = tmp_dir("control_bad_engine");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0.0\n0.4\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "gg", "--engine", "warp", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
}

#[test]
fn analyze_rejects_unknown_engine() {
    let dir = tmp_dir("bad_engine");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    std::fs::write(&nodes, "0.0\n0.4\n").unwrap();
    std::fs::write(&topo, "0 1\n").unwrap();
    // The engines folded into `auto` are gone, not aliased, and so are
    // the physical twins (the disk limit lives on as `--phy disk`).
    let gone = ["warp", "indexed", "parallel", "streaming", "physical-naive", "physical-indexed"];
    for engine in gone {
        let out = rim()
            .args(["analyze", "--engine", engine, "--nodes"])
            .arg(&nodes)
            .arg("--topology")
            .arg(&topo)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "engine {engine}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:") && err.contains("unknown engine"), "{engine}: {err}");
    }
}

#[test]
fn highway_algorithms_require_1d_instances() {
    let dir = tmp_dir("highway_guard");
    let nodes = dir.join("nodes2d.txt");
    std::fs::write(&nodes, "0.0 0.1\n0.5 0.2\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "a-exp", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("highway"));
}

#[test]
fn exp_chain_end_to_end_with_a_apx_and_schedule() {
    let dir = tmp_dir("chain");
    let nodes = dir.join("chain.txt");
    let topo = dir.join("apx.txt");
    assert!(rim()
        .args(["generate", "--kind", "exp-chain", "--n", "24", "--out"])
        .arg(&nodes)
        .status()
        .unwrap()
        .success());
    assert!(rim()
        .args(["control", "--algo", "a-apx", "--nodes"])
        .arg(&nodes)
        .arg("--out")
        .arg(&topo)
        .status()
        .unwrap()
        .success());
    let out = rim()
        .args(["schedule", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("frame length"));
}

#[test]
fn optimal_solves_small_instances() {
    let dir = tmp_dir("optimal");
    let nodes = dir.join("five.txt");
    std::fs::write(&nodes, "0.0\n0.2\n0.45\n0.7\n1.0\n").unwrap();
    let out = rim().args(["optimal", "--nodes"]).arg(&nodes).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("proved optimal"), "{text}");
}

#[test]
fn optimal_rejects_large_instances() {
    let dir = tmp_dir("optimal_large");
    let nodes = dir.join("many.txt");
    let mut content = String::new();
    for i in 0..20 {
        content.push_str(&format!("{}\n", i as f64 * 0.05));
    }
    std::fs::write(&nodes, content).unwrap();
    let out = rim().args(["optimal", "--nodes"]).arg(&nodes).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at most 12"));
}

#[test]
fn simulate_reports_metrics() {
    let dir = tmp_dir("simulate");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    std::fs::write(&nodes, "0.0\n0.4\n0.8\n1.2\n").unwrap();
    std::fs::write(&topo, "0 1\n1 2\n2 3\n").unwrap();
    let out = rim()
        .args(["simulate", "--slots", "3000", "--mac", "csma", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("delivery ratio"));
}

#[test]
fn render_produces_svg() {
    let dir = tmp_dir("render");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    std::fs::write(&nodes, "0.0\n0.4\n0.8\n").unwrap();
    std::fs::write(&topo, "0 1\n1 2\n").unwrap();
    let out = rim()
        .args(["render", "--disks", "true", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let svg = String::from_utf8(out.stdout).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("stroke-dasharray"), "disks requested");

    // Arc mode for highway instances.
    let out = rim()
        .args(["render", "--arcs", "true", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("<path"));
}

#[test]
fn malformed_files_give_line_errors() {
    let dir = tmp_dir("badfile");
    let nodes = dir.join("bad.txt");
    std::fs::write(&nodes, "0.0\nnot-a-number\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "mst", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn control_gg_keeps_coincident_nodes_connected() {
    // A node coincident with an endpoint must not block that endpoint's
    // Gabriel edges, or three coincident nodes keep no links.
    let dir = tmp_dir("gg_coincident");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0.5 0.5\n0.5 0.5\n0.5 0.5\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "gg", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("edges = 3, preserves connectivity = true"), "{text}");
}

#[test]
fn node_files_at_extreme_scales_are_rejected() {
    // Every distance of this line underflows to 0 when squared, which
    // gives a star MST with I = 3 instead of the path with I = 2.
    let dir = tmp_dir("tiny_scale");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0\n1e-200\n3e-200\n7e-200\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "mst", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error:") && err.contains("line 2"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn damaged_topology_files_exit_2_with_a_line_error() {
    // CRLF line ends parse; the duplicated line 3 would be an error, but
    // the token cut short on line 4 is reported first.
    let dir = tmp_dir("damaged_topology");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    std::fs::write(&nodes, "0 0\n0.5 0\n1 0\n").unwrap();
    std::fs::write(&topo, "0 1\r\n1 2\r\n1 2\r\n2\r\n").unwrap();
    let out = rim()
        .args(["analyze", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error:") && err.contains("line 4"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn analyze_is_invariant_under_power_of_two_scaling_of_node_files() {
    // Scaling by 2^-k scales every coordinate, distance and square
    // exactly while the file is accepted. With diameter <= 1 the UDG is
    // complete at every scale, so `control` and `analyze` must agree.
    let dir = tmp_dir("scaled_files");
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // In [2^-6, 0.7]: the diameter stays below 1 and every
        // coordinate stays at least 2^-459 after scaling by 2^-450.
        0.015625 + (state >> 11) as f64 / (1u64 << 53) as f64 * 0.68
    };
    let pts: Vec<(f64, f64)> = (0..40).map(|_| (rnd(), rnd())).collect();
    let summary = |k: i32| {
        let scale = 2f64.powi(-k);
        let nodes = dir.join(format!("nodes_{k}.txt"));
        let topo = dir.join(format!("topo_{k}.txt"));
        let text: String =
            pts.iter().map(|(x, y)| format!("{:e} {:e}\n", x * scale, y * scale)).collect();
        std::fs::write(&nodes, text).unwrap();
        let mut reports = Vec::new();
        for algo in ["mst", "gg", "lmst"] {
            let out = rim()
                .args(["control", "--algo", algo, "--nodes"])
                .arg(&nodes)
                .arg("--out")
                .arg(&topo)
                .output()
                .unwrap();
            assert!(out.status.success(), "k={k}: {}", String::from_utf8_lossy(&out.stderr));
            let out = rim()
                .args(["analyze", "--nodes"])
                .arg(&nodes)
                .arg("--topology")
                .arg(&topo)
                .output()
                .unwrap();
            assert!(out.status.success(), "k={k}: {}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8(out.stdout).unwrap();
            reports.extend(
                text.lines()
                    .filter(|l| {
                        l.starts_with("receiver interference I:")
                            || l.starts_with("mean node interference:")
                    })
                    .map(str::to_string),
            );
        }
        reports
    };
    let want = summary(0);
    assert_eq!(want.len(), 6, "{want:?}");
    for k in [100, 200, 300, 400, 450] {
        assert_eq!(summary(k), want, "scale 2^-{k}");
    }
}

#[test]
fn unknown_flags_are_rejected() {
    let out = rim()
        .args(["generate", "--kind", "exp-chain", "--n", "8", "--bogus", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));

    // `--timing true` was an alias for `--obs human` and is retired.
    let dir = tmp_dir("retired_timing");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0.0\n0.4\n").unwrap();
    let out = rim()
        .args(["control", "--algo", "gg", "--timing", "true", "--nodes"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: unknown flag --timing"), "{err}");
}

#[test]
fn analyze_obs_jsonl_emits_spans_and_counters() {
    // The ISSUE acceptance scenario: a 4096-node uniform instance
    // analyzed with `--obs jsonl` must emit spans and counters covering
    // index build, engine dispatch, and disk queries — all on stderr,
    // with the human report untouched on stdout.
    let dir = tmp_dir("analyze_obs");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");

    let out = rim()
        .args(["generate", "--kind", "uniform-square", "--n", "4096", "--side", "32",
               "--seed", "7", "--out"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = rim()
        .args(["control", "--algo", "gg", "--nodes"])
        .arg(&nodes)
        .arg("--out")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = rim()
        .args(["analyze", "--engine", "auto", "--obs", "jsonl", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    for needle in [
        "\"kind\":\"meta\"",
        "\"kind\":\"span\"",          // spans present at all
        "\"name\":\"analyze\"",       // CLI root span
        "interference/index_build",   // spatial index construction
        "interference/auto",          // engine dispatch
        "\"kind\":\"counter\"",
        "core.disk_queries",          // one per receiver in the kernel
    ] {
        assert!(err.contains(needle), "missing {needle} in --obs jsonl output:\n{err}");
    }
    // Every emitted line is an object; none of it leaks onto stdout.
    assert!(err.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "{err}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("receiver interference I:"));
    assert!(!stdout.contains("\"kind\""), "{stdout}");
}

#[test]
fn analyze_obs_spans_cover_the_report_and_leave_stdout_unchanged() {
    // The connectivity and sender-centric lines are computed inside the
    // `analyze` root span, under their own spans; tracing them must not
    // change a byte of the report.
    let dir = tmp_dir("analyze_obs_report");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    let out = rim()
        .args(["generate", "--kind", "uniform-square", "--n", "300", "--side", "5",
               "--seed", "3", "--out"])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = rim()
        .args(["control", "--algo", "rng", "--nodes"])
        .arg(&nodes)
        .arg("--out")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let analyze = |obs: &str| {
        let out = rim()
            .args(["analyze", "--obs", obs, "--nodes"])
            .arg(&nodes)
            .arg("--topology")
            .arg(&topo)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (plain, quiet) = analyze("off");
    let (traced, err) = analyze("jsonl");
    assert!(quiet.is_empty(), "{quiet}");
    assert_eq!(traced, plain, "--obs must not change stdout");
    for needle in ["\"name\":\"analyze/connectivity\"", "\"name\":\"analyze/sender\""] {
        assert!(err.contains(needle), "missing {needle} in --obs jsonl output:\n{err}");
    }
    let stdout = String::from_utf8(plain).unwrap();
    let labels: Vec<&str> =
        stdout.lines().filter_map(|l| l.split_once(':')).map(|(k, _)| k).collect();
    assert_eq!(
        labels,
        [
            "nodes",
            "interference engine",
            "udg edges / max degree",
            "topology edges",
            "is forest",
            "preserves connectivity",
            "receiver interference I",
            "mean node interference",
            "sender-centric measure",
            "energy (alpha = 2)",
            "worst node",
        ]
    );
}

#[test]
fn analyze_physical_engines_and_phy_sections() {
    let dir = tmp_dir("analyze_phy");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("topo.txt");
    assert!(rim()
        .args(["generate", "--kind", "uniform-square", "--n", "60", "--side", "1.5", "--seed",
               "3", "--out"])
        .arg(&nodes)
        .status()
        .unwrap()
        .success());
    assert!(rim()
        .args(["control", "--algo", "mst", "--nodes"])
        .arg(&nodes)
        .arg("--out")
        .arg(&topo)
        .status()
        .unwrap()
        .success());

    // `--phy disk`: the physical section's interference equals the disk
    // I — the disk-limit theorem, end to end.
    let out = rim()
        .args(["analyze", "--phy", "disk", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let grab = |prefix: &str| -> String {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing `{prefix}` in:\n{text}"))
            .rsplit_once(':')
            .unwrap()
            .1
            .trim()
            .to_string()
    };
    assert!(text.contains("physical model:           disk"), "{text}");
    let disk_i = grab("receiver interference I").split_whitespace().next().unwrap().to_string();
    assert_eq!(grab("physical interference I"), disk_i, "disk limit must hold:\n{text}");

    // `--phy logdist` with custom link-budget figures and shadowing.
    let out = rim()
        .args(["analyze", "--phy", "logdist", "--alpha", "3.5", "--power-dbm", "5",
               "--sigma-db", "4", "--phy-seed", "42", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("physical model:           logdist (alpha = 3.5"), "{text}");
    assert!(text.contains("worst SINR interference:"), "{text}");

    // Unknown phy mode is rejected, and logdist parameters are invalid
    // outside logdist mode.
    let out = rim()
        .args(["analyze", "--phy", "rician", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --phy mode"));
    let out = rim()
        .args(["analyze", "--phy", "disk", "--alpha", "3.0", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&topo)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--alpha must be rejected outside logdist mode");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--alpha"));
}

/// Damaged values for a real-valued flag: non-finite, negative, signed
/// zero, past the f64 range either way, and the extremes inside it.
const DAMAGED_REALS: [&str; 10] = [
    "nan", "inf", "-inf", "-1", "0", "-0", "1e400", "1e-400", "1e300", "1e-300",
];

/// Runs `rim` and checks the outcome every damaged flag must have: exit
/// 0, or exit 2 with an `error:` line naming `--{flag}` — never a panic
/// or an abort. Returns whether it succeeded, and its stdout.
fn run_damaged(args: &[&str], flag: &str) -> (bool, String) {
    let out = rim().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names_flag = |l: &str| l.starts_with("error:") && l.contains(&format!("--{flag}"));
    match out.status.code() {
        Some(0) => (true, stdout),
        Some(2) => {
            assert!(err.lines().any(names_flag), "{args:?}: the error must name --{flag}:\n{err}");
            (false, stdout)
        }
        code => panic!("{args:?} exited with {code:?}:\n{err}"),
    }
}

#[test]
fn damaged_real_valued_flags_exit_0_or_2_naming_the_flag() {
    let dir = tmp_dir("flag_damage");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let loads = |file: &str| {
        let out = rim().args(["control", "--algo", "mst", "--nodes", file]).output().unwrap();
        assert!(out.status.success(), "{file}: {}", String::from_utf8_lossy(&out.stderr));
    };

    // `rim generate`: every file it writes must load. Counts stay cheap.
    for (kind, flag, valid) in [
        ("uniform-square", "side", "2"),
        ("clusters", "side", "3"),
        ("uniform-highway", "span", "4"),
    ] {
        for (i, &value) in DAMAGED_REALS.iter().chain([&valid]).enumerate() {
            let file = path(&format!("{kind}_{i}.txt"));
            let n = ["40", "0", "1", "2", "7"][i % 5];
            let flag_arg = format!("--{flag}");
            let args = ["generate", "--kind", kind, "--n", n, &flag_arg, value, "--out", &file];
            let (ok, _) = run_damaged(&args, flag);
            assert!(ok || value != valid, "{args:?} must succeed");
            if ok {
                loads(&file);
            }
        }
    }
    // Exponential chains past 460 nodes have gaps node files refuse.
    for n in ["0", "1", "2", "460", "461", "470", "512", "513", "2000"] {
        let file = path(&format!("chain_{n}.txt"));
        let args = ["generate", "--kind", "exp-chain", "--n", n, "--out", &file];
        let (ok, _) = run_damaged(&args, "n");
        assert_eq!(ok, (1..=460).contains(&n.parse::<u32>().unwrap()), "{args:?}");
        if ok {
            loads(&file);
        }
    }

    // One small instance for `simulate` and `analyze --phy logdist`.
    let (nodes, topo) = (path("nodes.txt"), path("topo.txt"));
    assert!(rim()
        .args(["generate", "--kind", "uniform-square", "--n", "30", "--side", "1.2", "--seed",
               "3", "--out", &nodes])
        .status()
        .unwrap()
        .success());
    assert!(rim()
        .args(["control", "--algo", "mst", "--nodes", &nodes, "--out", &topo])
        .status()
        .unwrap()
        .success());
    for (i, &value) in DAMAGED_REALS.iter().chain([&"40"]).enumerate() {
        let (slots, flows) = (["0", "1", "300"][i % 3], ["0", "1", "4"][i % 3]);
        let args = ["simulate", "--nodes", &nodes, "--topology", &topo, "--slots", slots,
                    "--flows", flows, "--period", value];
        let (ok, _) = run_damaged(&args, "period");
        assert!(ok || value != "40", "{args:?} must succeed");
    }
    // A link budget that exits 0 prints only finite numbers.
    for (flag, valid) in [
        ("alpha", "3"),
        ("power-dbm", "0"),
        ("theta-dbm", "-85"),
        ("noise-dbm", "-100"),
        ("beta-db", "10"),
        ("sigma-db", "4"),
    ] {
        for &value in DAMAGED_REALS.iter().chain([&valid]) {
            let flag_arg = format!("--{flag}");
            let args = ["analyze", "--nodes", &nodes, "--topology", &topo, "--phy", "logdist",
                        &flag_arg, value];
            let (ok, stdout) = run_damaged(&args, flag);
            assert!(ok || value != valid, "{args:?} must succeed");
            for token in stdout.split(|c: char| c.is_whitespace() || "(),=:".contains(c)) {
                let finite = token.parse::<f64>().map_or(true, f64::is_finite);
                assert!(finite, "{args:?} printed `{token}`:\n{stdout}");
            }
        }
    }
}

#[test]
fn obs_rejects_unknown_mode() {
    let dir = tmp_dir("obs_bad_mode");
    let nodes = dir.join("nodes.txt");
    std::fs::write(&nodes, "0.0\n0.4\n").unwrap();
    let out = rim()
        .args(["analyze", "--obs", "verbose", "--nodes"])
        .arg(&nodes)
        .arg("--topology")
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --obs mode"));
}

#[test]
fn analyze_generate_streams_a_uniform_instance() {
    let out = rim()
        .args(["analyze", "--generate", "uniform:2000", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("nodes:                    2000 (generated uniform, seed 5"));
    assert!(text.contains("interference engine:      streaming (nearest-neighbor radii)"));
    assert!(text.contains("sqrt(log n) envelope:"));

    // Same spec and seed must reproduce the report byte for byte.
    let again = rim()
        .args(["analyze", "--generate", "uniform:2000", "--seed", "5"])
        .output()
        .unwrap();
    assert_eq!(text, String::from_utf8(again.stdout).unwrap());
}

#[test]
fn analyze_generate_rejects_bad_specs() {
    for (spec, needle) in [
        ("cluster:100", "unknown --generate spec"),
        ("uniform:lots", "bad node count"),
        ("uniform", "unknown --generate spec"),
    ] {
        let out = rim().args(["analyze", "--generate", spec]).output().unwrap();
        assert!(!out.status.success(), "spec {spec} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "spec {spec}: {err}");
    }
    let out = rim()
        .args(["analyze", "--generate", "uniform:10", "--side", "-1.0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--side must be positive"));
}

#[test]
fn analyze_generate_rejects_counts_past_the_u32_grid() {
    // 2³² nodes: one past the grid's u32 id capacity. The count must be
    // refused before anything allocates 64 GiB of coordinates.
    let out = rim().args(["analyze", "--generate", "uniform:4294967296"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.lines().any(|l| l.starts_with("error:")), "{err}");
    assert!(err.contains("4294967295"), "{err}");
}

/// Counts that fit the grid's u32 ids but not the address space the
/// child is given (`ulimit -v`, set in a shell for the child alone) exit
/// 2 with an `error:` line naming the count and the bytes; they used to
/// abort with exit 134.
///
/// * `uniform:4294967295` asks 34 GB for its first coordinate column.
/// * `uniform:6000000` fits its two 48 MB coordinate columns under a cap
///   of 96 MB + 19 MB (the binary itself takes a few MB), but not the
///   grid's 24 MB cell column next to them.
///
/// Three more caps used to kill the run: `uniform:140000` (a parallel
/// grid build) under 11 MiB and `uniform:4000000` under 24 MiB plus 16 B
/// per point left room for the columns but not a helper thread's stack
/// (exit 101, "failed to spawn thread"), and `uniform:2000000` under
/// 64 MiB aborted on a 62 KB block-scatter table (exit 134). Each must
/// exit 2 naming the count, or 0 with the uncapped report; which buffer
/// fails first depends on the memory layout, so these leave the bytes
/// unchecked.
#[cfg(unix)]
#[test]
fn analyze_generate_exits_2_when_memory_runs_out() {
    let capped = |count: usize, limit_kib: usize| {
        let script =
            format!("ulimit -v {limit_kib} && exec \"$0\" analyze --generate uniform:{count}");
        // A backtrace printed while memory is exhausted can block on
        // std's backtrace lock; without one, a failure aborts instead of
        // hanging the test.
        Command::new("sh")
            .args(["-c", &script, env!("CARGO_BIN_EXE_rim")])
            .env("RUST_BACKTRACE", "0")
            .output()
            .unwrap()
    };
    let cases = [
        (4_294_967_295usize, 4usize << 20, 34_359_738_360usize),
        (6_000_000, (16 * 6_000_000 + (19 << 20)) >> 10, 24_000_000),
    ];
    for (count, limit_kib, bytes) in cases {
        let out = capped(count, limit_kib);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "uniform:{count}: {err}");
        assert!(out.stdout.is_empty(), "uniform:{count} printed a report");
        let line = err.lines().find(|l| l.starts_with("error:")).unwrap_or_default();
        assert!(
            line.contains(&format!("{count} points")) && line.contains(&format!("{bytes} bytes")),
            "uniform:{count}: {err}"
        );
    }
    let layout_dependent = [
        (140_000usize, 11usize << 10),
        (4_000_000, (16 * 4_000_000 + (24 << 20)) >> 10),
        (2_000_000, 64 << 10),
    ];
    for (count, limit_kib) in layout_dependent {
        let out = capped(count, limit_kib);
        let err = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => {
                let spec = format!("uniform:{count}");
                let full = rim().args(["analyze", "--generate", &spec]).output().unwrap();
                assert_eq!(out.stdout, full.stdout, "{spec} under {limit_kib} KiB");
            }
            Some(2) => {
                let line = err.lines().find(|l| l.starts_with("error:")).unwrap_or_default();
                assert!(line.contains(&format!("{count} points")), "uniform:{count}: {err}");
                assert!(out.stdout.is_empty(), "uniform:{count} printed a report");
            }
            code => panic!("uniform:{count} under {limit_kib} KiB exited {code:?}: {err}"),
        }
    }
}

#[test]
fn analyze_generate_rejects_sides_that_leave_the_f64_range() {
    // Past 2^511 squared distances overflow; below 2^-405 the squares of
    // the smallest coordinate gaps underflow. Either used to print a
    // wrong I with exit 0.
    for side in ["1e160", "1e-170"] {
        let out = rim()
            .args(["analyze", "--generate", "uniform:3000", "--side", side])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "side {side}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.lines().any(|l| l.starts_with("error:")), "side {side}: {err}");
        assert!(out.stdout.is_empty(), "side {side}");
    }
}

#[test]
fn analyze_generate_is_invariant_under_power_of_two_sides() {
    // Scaling by 2^k scales every coordinate and distance exactly, so
    // wherever the side is accepted the report's I and mean must not
    // move.
    let summary = |k: i32| {
        let side = format!("{:e}", 2f64.powi(k));
        let out = rim()
            .args(["analyze", "--generate", "uniform:3000", "--seed", "11", "--side", &side])
            .output()
            .unwrap();
        assert!(out.status.success(), "k={k}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        let line = |label: &str| {
            text.lines().find(|l| l.starts_with(label)).map(str::to_string).unwrap_or_default()
        };
        (line("receiver interference I:"), line("mean node interference:"))
    };
    let want = summary(0);
    assert!(!want.0.is_empty() && !want.1.is_empty(), "{want:?}");
    for k in [-400, -200, 200, 505] {
        assert_eq!(summary(k), want, "side 2^{k}");
    }
}

/// The numeric value of `"key":` in one JSONL line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
}

#[test]
fn analyze_generate_obs_shows_one_staged_grid_build() {
    // Above the parallel build gate: the streaming path builds exactly
    // one grid, reports its worker count and times its three stages
    // inside `stream/soa_build`.
    let out = rim()
        .args(["analyze", "--generate", "uniform:200000", "--seed", "3", "--obs", "jsonl"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    let named = |name: &str| {
        let tag = format!("\"name\":\"{name}\"");
        err.lines().filter(|l| l.contains(&tag)).map(str::to_string).collect::<Vec<_>>()
    };
    let builds = named("geom.index.grid_builds");
    assert_eq!(builds.len(), 1, "{err}");
    assert_eq!(json_u64(&builds[0], "value"), Some(1), "{err}");
    let threads = named("geom.grid.build_threads");
    assert_eq!(threads.len(), 1, "{err}");
    assert!(json_u64(&threads[0], "max").is_some_and(|t| t >= 1), "{err}");
    let wall = |name: &str| {
        let spans = named(name);
        assert_eq!(spans.len(), 1, "{name}: {err}");
        json_u64(&spans[0], "wall_ns").unwrap_or_else(|| panic!("{name} has no wall_ns: {err}"))
    };
    let stages: u64 = ["geom/grid_cells", "geom/grid_scatter", "geom/grid_gather"]
        .into_iter()
        .map(wall)
        .sum();
    assert!(stages <= wall("stream/soa_build"), "{err}");
}

#[test]
fn churn_obs_reports_grid_splits_on_the_exp_chain_only() {
    // The exp-chain family overloads uniform cells, so its grid builds
    // split; the uniform family's never do.
    let split_cells = |family: &str| {
        let out = rim()
            .args(["churn", "--trace", family, "--edits", "3000", "--seed", "5", "--obs", "jsonl"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("\"name\":\"geom.index.grid_builds\""), "{err}");
        err.lines()
            .find(|l| l.contains("\"name\":\"geom.grid.split_cells\""))
            .map(|l| l.to_string())
    };
    let chain = split_cells("exp-chain:2048").expect("exp-chain builds report split cells");
    assert!(!chain.contains("\"value\":0}"), "{chain}");
    assert_eq!(split_cells("uniform:2048"), None, "uniform grids never split");
}

#[test]
fn churn_checkpoints_are_deterministic_and_verified() {
    let run = || {
        rim()
            .args([
                "churn", "--trace", "uniform:96", "--edits", "2000", "--seed", "13",
                "--verify", "true",
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let checkpoints: Vec<&str> =
        text.lines().filter(|l| l.contains("churn_checkpoint")).collect();
    assert!(checkpoints.len() >= 10, "cadence produced {} checkpoints", checkpoints.len());
    assert!(text.lines().last().unwrap().contains("churn_summary"));
    assert!(text.contains("\"p95_edit_ns\":"));

    // Same (seed, trace): checkpoint records byte-identical (the summary
    // carries wall clock and is excluded by design).
    let again = String::from_utf8(run().stdout).unwrap();
    let again_cp: Vec<&str> =
        again.lines().filter(|l| l.contains("churn_checkpoint")).collect();
    assert_eq!(checkpoints, again_cp, "checkpoint JSONL must be deterministic");
}

#[test]
fn churn_snapshot_resume_matches_uninterrupted_run() {
    let dir = tmp_dir("churn");
    let snap = dir.join("s.bin");
    let whole = rim()
        .args(["churn", "--trace", "clustered:64", "--edits", "2400", "--seed", "21"])
        .output()
        .unwrap();
    assert!(whole.status.success(), "{}", String::from_utf8_lossy(&whole.stderr));
    let whole = String::from_utf8(whole.stdout).unwrap();

    let part = rim()
        .args(["churn", "--trace", "clustered:64", "--edits", "1000", "--seed", "21"])
        .arg("--snapshot")
        .arg(&snap)
        .output()
        .unwrap();
    assert!(part.status.success(), "{}", String::from_utf8_lossy(&part.stderr));

    let resumed = rim()
        .args(["churn", "--edits", "1400", "--resume"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let resumed = String::from_utf8(resumed.stdout).unwrap();

    // The resumed run's final checkpoint equals the uninterrupted run's.
    let last = |text: &str| -> String {
        text.lines()
            .filter(|l| l.contains("churn_checkpoint"))
            .next_back()
            .expect("a checkpoint record")
            .to_string()
    };
    assert!(last(&whole).contains("\"edit\":2400"));
    assert_eq!(last(&whole), last(&resumed), "resume diverged from the whole run");
}

#[test]
fn churn_without_edits_prints_one_checkpoint() {
    let dir = tmp_dir("churn_no_edits");
    let snap = dir.join("s.bin");
    let fresh = rim().args(["churn", "--trace", "uniform:64", "--edits", "0"]).output().unwrap();
    let part = rim()
        .args(["churn", "--trace", "uniform:64", "--edits", "50", "--snapshot"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(part.status.success(), "{}", String::from_utf8_lossy(&part.stderr));
    let resumed = rim().args(["churn", "--edits", "0", "--resume"]).arg(&snap).output().unwrap();
    for out in [fresh, resumed] {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        let kinds: Vec<bool> = text.lines().map(|l| l.contains("churn_checkpoint")).collect();
        assert_eq!(kinds, [true, false], "one checkpoint, then the summary:\n{text}");
        assert!(text.lines().last().unwrap().contains("churn_summary"), "{text}");
    }
}

#[test]
fn churn_rejects_bad_specs_and_corrupt_snapshots() {
    for (args, needle) in [
        (vec!["churn", "--trace", "hexagonal:10"], "bad --trace spec"),
        (vec!["churn", "--trace", "uniform:none"], "bad node count"),
        (vec!["churn", "--trace", "uniform:0"], "population must be >= 1"),
        (vec!["churn"], "missing required flag --trace"),
    ] {
        let out = rim().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    // --resume and --trace are mutually exclusive (the snapshot carries
    // the trace); the stray flag is rejected as unknown.
    let dir = tmp_dir("churn_bad");
    let snap = dir.join("garbage.bin");
    std::fs::write(&snap, b"not a snapshot").unwrap();
    let out = rim()
        .args(["churn", "--trace", "uniform:8", "--resume"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --trace"));

    let out = rim().arg("churn").arg("--resume").arg(&snap).output().unwrap();
    assert!(!out.status.success(), "corrupt snapshot must be rejected");
}

#[test]
fn churn_rejects_snapshots_with_oversized_counts() {
    // A RIMCHRN1 file whose node or edge count is patched to 2^32, with
    // the FNV-1a trailer recomputed, must exit 2 with an error line —
    // not abort on a 64 GiB allocation.
    let dir = tmp_dir("churn_counts");
    let snap = dir.join("s.bin");
    let out = rim()
        .args(["churn", "--trace", "uniform:16", "--edits", "100", "--seed", "5", "--snapshot"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let good = std::fs::read(&snap).unwrap();
    let count_at = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize;
    // The node count follows the 138-byte header; the edge count follows
    // 25 bytes per node.
    let nodes_at = 138;
    let edges_at = nodes_at + 8 + 25 * count_at(nodes_at);
    for at in [nodes_at, edges_at] {
        let mut bad = good.clone();
        bad[at..at + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let body = bad.len() - 8;
        let mut sum = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bad[..body] {
            sum = (sum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        bad[body..].copy_from_slice(&sum.to_le_bytes());
        let patched = dir.join(format!("patched_{at}.bin"));
        std::fs::write(&patched, &bad).unwrap();
        let out = rim().arg("churn").arg("--resume").arg(&patched).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "count patched at byte {at}: {err}");
        assert!(err.starts_with("error:"), "{err}");
        assert!(err.contains("4294967296"), "{err}");
    }
}

#[test]
fn top_level_spans_cover_the_root_span() {
    // Under `--obs jsonl`, the spans directly below each command's root
    // account for at least 95 % of it, so a run record says where the
    // time went: `control` and `analyze` on a 6000-node uniform file
    // (unit density, as the benchmark's pipeline), `analyze --generate`
    // on 200k generated nodes.
    let dir = tmp_dir("span_coverage");
    let nodes = dir.join("nodes.txt");
    let topo = dir.join("gg.txt");
    let (nodes_arg, topo_arg) = (nodes.to_str().unwrap(), topo.to_str().unwrap());
    let out = rim()
        .args(["generate", "--kind", "uniform-square", "--n", "6000", "--side", "38.73"])
        .args(["--seed", "11", "--out", nodes_arg])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let runs: [(&str, Vec<&str>); 3] = [
        ("control", vec!["control", "--algo", "gg", "--nodes", nodes_arg, "--out", topo_arg]),
        ("analyze", vec!["analyze", "--nodes", nodes_arg, "--topology", topo_arg]),
        ("analyze_generated", vec!["analyze", "--generate", "uniform:200000", "--seed", "2"]),
    ];
    for (root_name, args) in runs {
        let out = rim().args(&args).args(["--obs", "jsonl"]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8(out.stderr).unwrap();
        let snap = rim_obs::Snapshot::from_jsonl(&err).unwrap();
        let root = snap
            .spans
            .iter()
            .position(|s| s.name == root_name && s.parent.is_none())
            .unwrap_or_else(|| panic!("no root span {root_name}: {err}"));
        let root_ns = snap.spans[root].wall_ns.unwrap();
        let top: u64 = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.wall_ns.unwrap())
            .sum();
        assert!(
            top as f64 >= 0.95 * root_ns as f64,
            "{root_name}: top-level spans cover {top} of {root_ns} ns:\n{err}"
        );
    }
}
