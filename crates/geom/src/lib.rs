//! Geometry substrate for the `rim` workspace.
//!
//! The interference model of von Rickenbach et al. (IPDPS 2005) is defined
//! over points in the Euclidean plane (or on a line, the *highway model*)
//! and disks induced by transmission radii. This crate provides exactly the
//! primitives the rest of the workspace needs, built from scratch:
//!
//! * [`Point`] — a point in the plane (`f64` coordinates) with distance
//!   helpers that prefer squared distances in hot paths,
//! * [`Disk`] — a closed disk `D(c, r)` with containment predicates,
//! * [`Aabb`] — axis-aligned bounding boxes,
//! * [`SoaPoints`] / [`SoaGrid`] — structure-of-arrays point storage and
//!   the bucket grid with bucket-major coordinate columns, the one grid
//!   every disk query in the workspace scans. Cells overloaded by a
//!   skewed density (the exponential chain) split into nested grids, so
//!   one structure serves every spread,
//! * [`DynGrid`] — that grid plus a bucketed arrival overlay and per-cell
//!   radius bounds, the incremental engine's index,
//! * [`convex_hull`] — Andrew's monotone chain.
//!
//! # Floating-point policy
//!
//! Containment in the interference model is the *closed* predicate
//! `|uv| <= r_u` where `r_u` is itself a copy of some pairwise `dist()`
//! result. All radius-containment predicates therefore compare at
//! **distance level** (`dist(p, c) <= r`, no epsilon, no re-squaring): a
//! radius copied from a distance then compares equal to that distance
//! bit-for-bit, so a node's farthest neighbor is always inside its disk.
//! (Comparing squared distances against `r*r` would break this — squaring
//! the correctly-rounded square root does not round-trip.) Squared
//! distances remain fine for *relative* comparisons such as
//! nearest-neighbor searches, where both sides are raw `dist_sq` values.

#![forbid(unsafe_code)]

// Node ids double as indices throughout this workspace; indexed loops
// over `0..n` mirror the paper's notation and often touch several arrays.
#![allow(clippy::needless_range_loop)]

pub mod bbox;
pub mod delaunay;
pub mod disk;
pub mod dyn_grid;
pub mod grid;
pub mod hull;
pub mod point;
pub mod soa;
pub mod soa_grid;

pub use bbox::Aabb;
pub use delaunay::{delaunay, Delaunay};
pub use disk::Disk;
pub use dyn_grid::DynGrid;
pub use grid::{fits_u32_index, try_filled, GridCapacityError, MAX_INDEXED_POINTS, PAR_BUILD_MIN};
pub use hull::convex_hull;
pub use point::Point;
pub use soa::SoaPoints;
pub use soa_grid::{Nearest, SoaGrid};
