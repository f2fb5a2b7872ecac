//! `rim-obs` — the workspace's zero-dependency observability layer.
//!
//! Library crates call the free functions in this module ([`counter_add`],
//! [`record`], [`span`]) unconditionally; they compile down to an atomic
//! load and a branch while no recorder is installed, so instrumentation never
//! taxes library users (`crates/core/tests/obs_overhead.rs` holds the
//! disabled path under 5% of the 4096-node interference kernel). Only the
//! CLI and the bench harness may enable collection by calling
//! [`install_recorder`] — the `obs-no-op-default` lint-gate audit enforces
//! this split, so a library crate can depend on `rim-obs` without ever
//! turning it on.
//!
//! Three primitives cover the workspace's needs:
//!
//! * **Spans** — hierarchical wall-time regions ([`span`] returns an RAII
//!   guard; nesting is tracked per thread, so worker-thread spans root
//!   themselves without locks).
//! * **Counters** — named monotonic `u64` sums ([`counter_add`]).
//! * **Histograms** — log2-bucketed value distributions ([`record`]),
//!   see [`hist::Histogram`].
//!
//! Collection goes to one process-wide [`recorder::Recorder`], a sharded
//! mutex registry reusing the per-slot-lock discipline of `rim-par`;
//! snapshots export as a human-readable tree or JSONL (see
//! [`recorder::Snapshot`]).

#![forbid(unsafe_code)]

pub mod hist;
pub mod mem;
pub mod recorder;
pub mod report;

pub use hist::Histogram;
pub use mem::peak_rss_kb;
pub use recorder::{Recorder, Snapshot, SpanRecord};

use std::sync::OnceLock;

/// Handle for an open span, produced by [`Recorder::span_enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanId(usize);

impl SpanId {
    /// Sentinel for "no span recorded" (collection disabled).
    pub(crate) const NONE: SpanId = SpanId(usize::MAX);

    pub(crate) fn new(index: usize) -> SpanId {
        SpanId(index)
    }

    /// Arena index of the span, or `None` for the [`SpanId::NONE`]
    /// sentinel.
    pub(crate) fn index(self) -> Option<usize> {
        (self.0 != usize::MAX).then_some(self.0)
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// Installs (idempotently) the process-wide [`Recorder`] and returns it.
/// The first installation is permanent for the life of the process. Only
/// the CLI and the bench harness may call this — library crates are held
/// to the no-op default by the `obs-no-op-default` lint audit.
pub fn install_recorder() -> &'static Recorder {
    RECORDER.get_or_init(Recorder::new)
}

/// The installed recorder, if [`install_recorder`] has run.
#[inline]
pub fn global() -> Option<&'static Recorder> {
    RECORDER.get()
}

/// Whether a recorder is installed. Kernels batching per-item work
/// (e.g. per-query candidate counts) branch on this once instead of
/// paying a call per item.
#[inline]
pub fn active() -> bool {
    global().is_some()
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if let Some(r) = global() {
        r.counter_add(name, delta);
    }
}

/// Records one histogram sample (no-op while disabled).
#[inline]
pub fn record(name: &'static str, value: u64) {
    if let Some(r) = global() {
        r.record_value(name, value);
    }
}

/// RAII guard returned by [`span`]; exits the span on drop.
pub struct SpanGuard {
    id: SpanId,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != SpanId::NONE {
            if let Some(r) = global() {
                r.span_exit(self.id);
            }
        }
    }
}

/// Opens a named span ending when the returned guard drops (inert while
/// disabled). Bind the guard — `let _span = rim_obs::span("phase");` — so
/// it lives to the end of the scope.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    match global() {
        Some(r) => SpanGuard { id: r.span_enter(name) },
        None => SpanGuard { id: SpanId::NONE },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_returns_the_sentinel() {
        // No test of this binary installs the recorder, so every call
        // takes the no-op default: nothing is recorded and spans carry
        // the sentinel.
        counter_add("x", 1);
        record("x", 1);
        let guard = span("x");
        assert_eq!(guard.id, SpanId::NONE);
        assert_eq!(guard.id.index(), None);
        assert!(!active() && global().is_none());
    }

    #[test]
    fn span_ids_expose_their_arena_index() {
        assert_eq!(SpanId::new(3).index(), Some(3));
        assert_eq!(SpanId::NONE.index(), None);
    }
}
