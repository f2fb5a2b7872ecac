//! Drives all four workloads at toy sizes through `target/release/rim`,
//! traced and untraced, and checks that each reports exactly the metrics
//! `BENCHMARK.json` names and that a trace's layers add up.

use rim_benchmark::env::Env;
use rim_benchmark::report::Report;
use rim_benchmark::{churn, pipeline, run_workload, stream, Sizes, WORKLOADS};
use rim_churn::Family;

const TOY: Sizes = Sizes {
    pipeline: pipeline::Size { n: 400 },
    stream: stream::Size { n: 5_000 },
    churn_uniform: churn::Size {
        family: Family::Uniform,
        n0: 64,
        trace_edits: 400,
    },
    churn_expchain: churn::Size {
        family: Family::ExpChain,
        n0: 64,
        trace_edits: 400,
    },
};

/// The `name`s listed in `BENCHMARK.json`'s `section` array.
fn names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn metric_names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

/// The integer after `"key":` in a JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
    rest.split([',', '}']).next().unwrap().parse().unwrap()
}

/// In the written spans, self times add up to the root span, and each
/// `<layer>_s` metric is the sum of that layer's self times.
fn check_spans(env: &Env, r: &Report) {
    let text = std::fs::read_to_string(env.file("spans.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let root = field(lines[0], "dur_ns");
    let total: u64 = lines.iter().map(|l| field(l, "self_ns")).sum();
    assert_eq!(
        total, root,
        "{}: self times do not add up to the root span",
        r.workload
    );
    let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
    let wall = value("traced_wall_s");
    assert_eq!(wall, root as f64 / 1e9);
    let mut layers = 0.0;
    for m in &r.metrics {
        let Some(layer) = m.name.strip_suffix("_s") else {
            continue;
        };
        let tag = format!("\"name\":\"{layer}\",\"layer\":true");
        let spans: Vec<&&str> = lines.iter().filter(|l| l.contains(&tag)).collect();
        if spans.is_empty() {
            continue;
        }
        let ns: u64 = spans.iter().map(|l| field(l, "self_ns")).sum();
        assert_eq!(m.value, ns as f64 / 1e9, "{}: {}", r.workload, m.name);
        layers += m.value;
    }
    let sum = layers + value("unattributed_s");
    assert!(
        (sum - wall).abs() < 1e-9,
        "{}: layers sum to {sum}, wall is {wall}",
        r.workload
    );
}

#[test]
fn every_workload_reports_every_listed_metric() {
    let e2e = names("end_to_end");
    let layers = names("per_layer");
    assert_eq!(e2e.len(), rim_benchmark::report::END_TO_END.len());
    assert_eq!(layers.len(), rim_benchmark::report::PER_LAYER.len());
    for workload in WORKLOADS {
        let env = Env::prepare(&format!("smoke-{workload}")).unwrap();
        assert!(env.rim.ends_with("release/rim"), "{}", env.rim.display());
        let run = run_workload(&env, workload, &TOY, 1, 0.2, false).unwrap();
        assert!(run.correct(), "{workload}: {:?}", run.tally);
        assert_eq!(metric_names(&run), e2e, "{workload}");
        assert!(
            run.metrics.iter().all(|m| m.value > 0.0),
            "{workload}: {:?}",
            run.metrics
        );
        assert!(run
            .json()
            .unwrap()
            .starts_with("{\"correct\": true, \"attempted\": "));

        let traced = run_workload(&env, workload, &TOY, 1, 0.2, true).unwrap();
        assert!(traced.correct(), "{workload}: {:?}", traced.tally);
        assert_eq!(metric_names(&traced), layers, "{workload}");
        check_spans(&env, &traced);
    }
}
