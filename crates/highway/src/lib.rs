//! The **highway model** — Section 5 of von Rickenbach et al. (IPDPS
//! 2005): nodes restricted to one dimension.
//!
//! One-dimensional instances already exhibit the full difficulty of
//! minimum-interference topology control. This crate implements the
//! paper's constructions and algorithms:
//!
//! * [`instance`] — highway instances (sorted positions on a line),
//!   the linearly connected topology `G_lin`, and `Δ` computation;
//! * [`exponential`] — the exponential node chain (Figure 6) and the
//!   two-chain 2-D witness of Theorem 4.1 (Figures 3–5);
//! * [`a_exp`](mod@a_exp) — the scan-line hub algorithm achieving `O(√n)`
//!   interference on the exponential chain (Theorem 5.1, Figure 8);
//! * [`a_gen`](mod@a_gen) — the segment/hub algorithm achieving `O(√Δ)` on *any*
//!   highway instance (Lemma 5.3, Theorem 5.4, Figure 9);
//! * [`critical`] — critical node sets `C_v` and `γ = max_v |C_v|`
//!   (Definition 5.2);
//! * [`a_apx`](mod@a_apx) — the hybrid `O(Δ^{1/4})`-approximation (Theorem 5.6);
//! * [`bounds`] — the `√n` (Theorem 5.2) and `Ω(√γ)` (Lemma 5.5) lower
//!   bounds used as optimality certificates;
//! * [`plane`] — `A_gen2`, our engineering take on the paper's stated
//!   future work (adapting the approach to two dimensions).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// Node ids double as indices throughout this workspace; indexed loops
// over `0..n` mirror the paper's notation and often touch several arrays.
#![allow(clippy::needless_range_loop)]

/// Algorithm `A_apx` — the hybrid approximation (Section 5.3, Theorem 5.6).
pub mod a_apx;
/// Algorithm `A_exp` — scan-line hub growth (Section 5.1, Figure 8).
pub mod a_exp;
/// Algorithm `A_gen` — segments and hubs (Section 5.2, Figure 9).
pub mod a_gen;
/// Lower bounds: Theorem 5.2 and Lemma 5.5 optimality certificates.
pub mod bounds;
/// Critical node sets (Definition 5.2) and the instance parameter `γ`.
pub mod critical;
/// The exponential node chain (Figure 6) and Theorem 4.1's witness.
pub mod exponential;
/// Highway instances: node positions on a line.
pub mod instance;
/// `A_gen2` — an engineering extension of `A_gen` to the plane.
pub mod plane;

pub use a_apx::{a_apx, ApxChoice};
pub use a_exp::a_exp;
pub use a_gen::a_gen;
pub use critical::gamma;
pub use exponential::{exponential_chain, two_chains, MAX_CHAIN_NODES};
pub use instance::HighwayInstance;
