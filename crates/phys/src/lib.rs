//! Physical-layer (SINR) receiver model.
//!
//! The paper's interference measure lives in a boolean disk
//! abstraction: node `u` covers everything within its transmission
//! radius `r_u` and nothing beyond. This crate provides the standard
//! physical-layer refinement of that model — per-node transmit powers,
//! log-distance path loss, optional seeded log-normal shadowing, and
//! threshold-based coverage/SINR reception — engineered so that the
//! disk model is recovered **exactly** (bit-for-bit, not approximately)
//! in the zero-shadowing limit:
//!
//! * [`PhysModel::disk_equivalent`] instantiates the model with
//!   `α = 2`, `θ = 1 mW`, no shadowing, and `p_u = r_u²`, so the
//!   coverage radius `ρ_u = √(p_u/θ) = √(r_u·r_u)` equals `r_u`
//!   exactly under IEEE-754 round-to-nearest (a square root of an
//!   exact square rounds back to its root). The physical coverage
//!   counts then equal the paper's interference vector on every input
//!   — a differential-tested theorem, see `DESIGN.md` §11.
//! * [`sinr_interference_naive`] is the permanent `O(n²)` SINR oracle;
//!   [`sinr_interference_indexed`] reuses `rim_geom::SoaGrid`
//!   with a conservative range cutoff derived from the noise floor and
//!   produces bit-identical sums (same closed predicate, same
//!   ascending-sender accumulation order per receiver).
//! * [`SinrTable::received`] generalizes the simulator's boolean
//!   `Coverage::received` to SINR-threshold reception.
//!
//! All randomness (shadowing) is drawn from [`rim_rng::SmallRng`]
//! under an explicit seed — never from the wall clock — so every model
//! build is bit-reproducible.

#![forbid(unsafe_code)]

pub mod model;
pub mod pathloss;
pub mod sinr;

pub use model::{PhysModel, PhysParams};
pub use pathloss::{coverage_range, db_to_linear, dbm_to_mw, mw_to_dbm, standard_normal};
pub use sinr::{
    build_phys_index, coverage_vector_indexed, coverage_vector_naive,
    physical_interference_vector_with, sinr_interference_indexed, sinr_interference_naive,
    sinr_interference_with, SinrTable,
};
