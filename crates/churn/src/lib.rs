//! Long-horizon churn workload for the dynamic interference engine.
//!
//! The paper's dynamic setting is where the robust (receiver-centric)
//! interference model earns its keep: nodes arrive, depart, and move,
//! and `I(G')` must stay maintained in `O(affected)` per edit. This
//! crate is the scenario layer that *drives* that engine at service
//! scale:
//!
//! * [`trace::ChurnTrace`] — a deterministic, seeded stream of
//!   [`trace::ChurnOp`]s (arrival / departure / mobility step / link
//!   re-assignment) over one of the five adversarial instance families.
//!   The stream is a pure function of `(config, edit budget)`: replaying
//!   it reproduces every coordinate and every pick bit-for-bit.
//! * [`sim::ChurnSim`] — applies the stream to
//!   [`rim_core::DynamicInterference`], links each arrival to its
//!   nearest live neighbor through the engine's own grid, tombstone-
//!   compacts so a sustained million-edit run keeps flat memory, and
//!   tracks deterministic op counters (the SLO surface next to the
//!   rim-obs latency histograms).
//! * [`snapshot`] — a compact binary encoding of the *entire* sim state
//!   (positions, radii, liveness, edges, pending-overlay boundary, RNG
//!   state, op counters). Restore is exact: a restored run continues
//!   bit-identically to one that never stopped, a property pinned by
//!   the crate's property tests and the replay-differential layer in
//!   `tests/`.
//!
//! Determinism is the contract everywhere: no wall clock, no thread
//! communication, no iteration over unordered containers — every
//! tie-break is total (distance, then id). Latency measurement lives in
//! the callers (CLI and bench harness), never in the hot path.

#![forbid(unsafe_code)]

pub mod sim;
pub mod snapshot;
pub mod trace;

pub use sim::{ChurnSim, OpCounts};
pub use snapshot::{decode_snapshot, encode_snapshot};
pub use trace::{ChurnConfig, ChurnOp, ChurnTrace, Family};
