//! Physical-layer (SINR) receiver model.
//!
//! The paper's interference measure lives in a boolean disk
//! abstraction: node `u` covers everything within its transmission
//! radius `r_u` and nothing beyond. This crate is a layer over that
//! model (`rim-core`): per-node transmit powers, log-distance path
//! loss, optional seeded log-normal shadowing, and threshold-based
//! coverage/SINR reception — engineered so that the disk model is
//! recovered **exactly** (bit-for-bit, not approximately) in the
//! zero-shadowing limit:
//!
//! * [`PhysModel::disk_equivalent`] instantiates the model with
//!   `α = 2`, `θ = 1 mW`, no shadowing, and `p_u = r_u²`, so the
//!   coverage radius `ρ_u = √(p_u/θ) = √(r_u·r_u)` equals `r_u`
//!   exactly under IEEE-754 round-to-nearest (a square root of an
//!   exact square rounds back to its root). The physical coverage
//!   counts then equal the paper's interference vector on every input
//!   — a differential-tested theorem, see `DESIGN.md` §11.
//! * [`physical_interference_vector`] counts coverage with the disk
//!   model's own scatter (`rim_core::StreamInstance`) over the radii
//!   `ρ_u`; [`coverage_vector_naive`] is its `O(n²)` oracle.
//! * [`sinr_interference_naive`] is the permanent `O(n²)` SINR oracle;
//!   [`sinr_interference_indexed`] reuses `rim_geom::SoaGrid`
//!   with a conservative range cutoff derived from the noise floor and
//!   produces bit-identical sums (same closed predicate, same
//!   ascending-sender accumulation order per receiver).
//! * [`SinrTable::received`] generalizes the simulator's boolean
//!   `Coverage::received` to SINR-threshold reception.
//! * [`PhysParams::from_link_budget`] checks radio-style figures from
//!   outside the program before any of them reaches a kernel.
//!
//! All randomness (shadowing) is drawn from [`rim_rng::SmallRng`]
//! under an explicit seed — never from the wall clock — so every model
//! build is bit-reproducible.

#![forbid(unsafe_code)]

pub mod model;
pub mod pathloss;
pub mod sinr;

pub use model::{LinkBudgetError, PhysModel, PhysParams};
pub use pathloss::{coverage_range, db_to_linear, dbm_to_mw, mw_to_dbm, standard_normal};
pub use sinr::{
    coverage_vector_naive, physical_interference_vector, sinr_interference_indexed,
    sinr_interference_naive, SinrTable,
};
