//! `rim-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]`
//!
//! Builds `rim` from this checkout, runs workload `W` for `T` seconds on
//! inputs made from seed `S`, and prints one `workload metric value unit
//! n=samples` line per metric, then one JSON object as the last line of
//! stdout. Exits 2 on a usage error and 1 when the benchmark cannot run.

#![forbid(unsafe_code)]

use rim_benchmark::{env::Env, run_workload, FULL, WORKLOADS};

const USAGE: &str = "usage: rim-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rim-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = Env::prepare(&args.workload)
        .and_then(|env| {
            run_workload(
                &env,
                &args.workload,
                &FULL,
                args.seed,
                args.seconds,
                args.traced,
            )
        })
        .and_then(|report| Ok((report.human(), report.json()?)));
    match result {
        Ok((human, json)) => {
            print!("{human}");
            println!("{json}");
        }
        Err(e) => {
            eprintln!("rim-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
