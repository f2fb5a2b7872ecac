//! Shared harness for the experiment suite: experiment records, CSV
//! export, and the per-figure data generators the `figures` binary runs
//! (their sweeps fan out over `rim_par::parallel_map`).

#![forbid(unsafe_code)]

// Node ids double as indices throughout this workspace; indexed loops
// over `0..n` mirror the paper's notation and often touch several arrays.
#![allow(clippy::needless_range_loop)]

pub mod experiments;
pub mod record;
pub mod stats;
