//! The process-wide recorder: a sharded in-memory registry.
//!
//! Counters and histograms live in a fixed array of mutex-guarded shards
//! (the same per-slot-mutex discipline `rim-par` uses for its output
//! slots): a metric name hashes to one shard, so threads updating
//! different metrics almost never contend and no lock is ever held across
//! user code. Spans go into a single append-only arena; each thread keeps
//! its own open-span stack in a thread-local, so parentage never needs a
//! global structure.

use crate::hist::Histogram;
use crate::SpanId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of counter/histogram shards; a small power of two keeps the
/// name-hash modulo cheap while spreading unrelated metrics apart.
const SHARDS: usize = 16;

/// Recovers a lock even if another thread panicked while holding it —
/// every critical section below only performs map inserts and integer
/// arithmetic, so the value is consistent regardless.
fn relock<T>(r: std::sync::LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// FNV-1a over the metric name; stable, dependency-free shard selector.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

struct SpanSlot {
    name: &'static str,
    parent: Option<usize>,
    thread: u64,
    start: Instant,
    wall_ns: Option<u64>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Indices (into the span arena) of this thread's open spans,
    /// innermost last.
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for this thread, assigned on first span.
    /// Relaxed: ids only need uniqueness, not any ordering with other state.
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Thread-safe metrics registry; the one [`crate::install_recorder`]
/// enables.
pub struct Recorder {
    shards: [Shard; SHARDS],
    spans: Mutex<Vec<SpanSlot>>,
    /// Span exits whose id was not the top of the entering thread's
    /// stack — a well-formedness violation surfaced in snapshots.
    mismatched_exits: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            shards: std::array::from_fn(|_| Shard::default()),
            spans: Mutex::new(Vec::new()),
            mismatched_exits: AtomicU64::new(0),
        }
    }

    /// Current value of a counter; 0 if it was never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        let shard = &self.shards[shard_of(name)];
        relock(shard.counters.lock()).get(name).copied().unwrap_or(0)
    }

    /// All counters as an ordered name → value map.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (&k, &v) in relock(shard.counters.lock()).iter() {
                out.insert(k.to_string(), v);
            }
        }
        out
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let mut histograms = BTreeMap::new();
        for shard in &self.shards {
            for (&k, v) in relock(shard.hists.lock()).iter() {
                histograms.insert(k.to_string(), v.clone());
            }
        }
        let spans = relock(self.spans.lock())
            .iter()
            .map(|s| SpanRecord {
                name: s.name.to_string(),
                parent: s.parent,
                thread: s.thread,
                wall_ns: s.wall_ns,
            })
            .collect();
        Snapshot {
            counters: self.counters(),
            histograms,
            spans,
            // Relaxed: a monotone diagnostic counter; the snapshot promises
            // no cross-metric consistency.
            mismatched_exits: self.mismatched_exits.load(Ordering::Relaxed),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    // rim-lint: allow(panic-freedom) — `shard_of` reduces modulo `SHARDS`
    pub(crate) fn counter_add(&self, name: &'static str, delta: u64) {
        let shard = &self.shards[shard_of(name)];
        *relock(shard.counters.lock()).entry(name).or_insert(0) += delta;
    }

    /// Records one sample into the named histogram.
    // rim-lint: allow(panic-freedom) — `shard_of` reduces modulo `SHARDS`
    pub(crate) fn record_value(&self, name: &'static str, value: u64) {
        let shard = &self.shards[shard_of(name)];
        relock(shard.hists.lock()).entry(name).or_default().record(value);
    }

    /// Opens a span; the returned id must later be passed to
    /// [`Recorder::span_exit`].
    // The arena is non-empty right after the push, and the span clock feeds
    // wall_ns in the observability snapshot only; engine results never read it.
    // rim-lint: allow(panic-freedom, engine-determinism)
    pub(crate) fn span_enter(&self, name: &'static str) -> SpanId {
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let thread = THREAD_ID.with(|id| *id);
        let idx = {
            let mut spans = relock(self.spans.lock());
            spans.push(SpanSlot { name, parent, thread, start: Instant::now(), wall_ns: None });
            spans.len() - 1
        };
        SPAN_STACK.with(|s| s.borrow_mut().push(idx));
        SpanId::new(idx)
    }

    /// Closes a previously opened span.
    pub(crate) fn span_exit(&self, id: SpanId) {
        let Some(idx) = id.index() else { return };
        let well_formed = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&idx) {
                stack.pop();
                true
            } else {
                // Out-of-order or cross-thread exit: drop the id wherever
                // it is so the stack cannot wedge, but count the breach.
                stack.retain(|&open| open != idx);
                false
            }
        });
        if !well_formed {
            // Relaxed: monotone diagnostic counter; publishes no other state.
            self.mismatched_exits.fetch_add(1, Ordering::Relaxed);
        }
        let mut spans = relock(self.spans.lock());
        if let Some(slot) = spans.get_mut(idx) {
            if slot.wall_ns.is_none() {
                slot.wall_ns = Some(slot.start.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// One completed (or still-open) span in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static name passed to `span_enter`.
    pub name: String,
    /// Arena index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Dense id of the thread that entered the span.
    pub thread: u64,
    /// Elapsed wall time; `None` while the span is still open.
    pub wall_ns: Option<u64>,
}

/// Point-in-time copy of a [`Recorder`]'s contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → bucketed samples.
    pub histograms: BTreeMap<String, Histogram>,
    /// Spans in arena (entry) order; `parent` indexes into this vec.
    pub spans: Vec<SpanRecord>,
    /// Span exits that did not match the innermost open span.
    pub mismatched_exits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        rec.counter_add("t.hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter("t.hits"), 8000);
        assert_eq!(rec.counter("t.other"), 0);
    }

    #[test]
    fn histograms_merge_across_threads() {
        // Four threads each record the same sample set; the shared
        // histogram must equal one thread's histogram merged four times —
        // i.e. concurrent recording behaves like associative merging.
        let rec = Recorder::new();
        let samples: Vec<u64> = (0..64).map(|i| i * i).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &v in &samples {
                        rec.record_value("t.samples", v);
                    }
                });
            }
        });
        let mut one = Histogram::new();
        for &v in &samples {
            one.record(v);
        }
        let mut expected = Histogram::new();
        for _ in 0..4 {
            expected.merge(&one);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["t.samples"], expected);
    }

    #[test]
    fn span_parentage_follows_nesting() {
        let rec = Recorder::new();
        let outer = rec.span_enter("outer");
        let inner = rec.span_enter("inner");
        rec.span_exit(inner);
        let sibling = rec.span_enter("sibling");
        rec.span_exit(sibling);
        rec.span_exit(outer);
        let snap = rec.snapshot();
        assert_eq!(snap.mismatched_exits, 0);
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].parent, None);
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[2].parent, Some(0));
        assert!(snap.spans.iter().all(|s| s.wall_ns.is_some()));
    }

    #[test]
    fn mismatched_exit_is_counted_not_wedged() {
        let rec = Recorder::new();
        let outer = rec.span_enter("outer");
        let inner = rec.span_enter("inner");
        // Exiting the outer span first is a well-formedness violation.
        rec.span_exit(outer);
        assert_eq!(rec.snapshot().mismatched_exits, 1);
        // The stack self-heals: the inner span can still exit cleanly.
        rec.span_exit(inner);
        let snap = rec.snapshot();
        assert_eq!(snap.mismatched_exits, 1);
        assert!(snap.spans.iter().all(|s| s.wall_ns.is_some()));
        // Double exit of an already-closed span is counted too.
        rec.span_exit(inner);
        assert_eq!(rec.snapshot().mismatched_exits, 2);
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let rec = Recorder::new();
        rec.counter_add("a", 1);
        let before = rec.snapshot();
        rec.counter_add("a", 1);
        assert_eq!(before.counters["a"], 1);
        assert_eq!(rec.snapshot().counters["a"], 2);
    }
}
