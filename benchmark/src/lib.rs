//! `rim-benchmark`: the end-to-end benchmark of `rim`, with a traced
//! per-layer breakdown.
//!
//! Four workloads, each driven by one client running one operation at a
//! time (a closed loop): `pipeline` and `stream` through the `rim`
//! binary as subprocesses, `churn-uniform` and `churn-expchain`
//! in-process through `rim-churn`'s public API (with their restores
//! through the binary). With tracing off a run reports the
//! [`report::END_TO_END`] metrics; with tracing on it replays the
//! workload's operation in-process with a span around every call into a
//! layer and reports [`report::PER_LAYER`]. See `README.md`.

#![forbid(unsafe_code)]

pub mod churn;
pub mod env;
mod layers;
pub mod pipeline;
mod proc;
pub mod report;
mod stats;
pub mod stream;
mod tracer;

use env::Env;
use report::Report;

/// The workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 4] = ["pipeline", "stream", "churn-uniform", "churn-expchain"];

/// Problem sizes of all four workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `pipeline` instance.
    pub pipeline: pipeline::Size,
    /// `stream` instance.
    pub stream: stream::Size,
    /// `churn-uniform` scenario.
    pub churn_uniform: churn::Size,
    /// `churn-expchain` scenario.
    pub churn_expchain: churn::Size,
}

/// The sizes the benchmark runs.
pub const FULL: Sizes = Sizes {
    pipeline: pipeline::FULL,
    stream: stream::FULL,
    churn_uniform: churn::UNIFORM,
    churn_expchain: churn::EXPCHAIN,
};

/// Runs `workload` for `seconds` on inputs made from `seed`, traced or
/// not. `Err` means the benchmark itself could not run; failed
/// operations are counted in the report instead.
pub fn run_workload(
    env: &Env,
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    match (workload, traced) {
        ("pipeline", false) => pipeline::run(env, sizes.pipeline, seed, seconds),
        ("pipeline", true) => pipeline::trace(env, sizes.pipeline, seed, seconds),
        ("stream", false) => stream::run(env, sizes.stream, seed, seconds),
        ("stream", true) => stream::trace(env, sizes.stream, seed, seconds),
        ("churn-uniform", false) => {
            churn::run(env, "churn-uniform", sizes.churn_uniform, seed, seconds)
        }
        ("churn-uniform", true) => {
            churn::trace(env, "churn-uniform", sizes.churn_uniform, seed, seconds)
        }
        ("churn-expchain", false) => {
            churn::run(env, "churn-expchain", sizes.churn_expchain, seed, seconds)
        }
        ("churn-expchain", true) => {
            churn::trace(env, "churn-expchain", sizes.churn_expchain, seed, seconds)
        }
        (other, _) => Err(format!(
            "unknown workload {other} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
