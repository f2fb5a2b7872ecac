//! `rim-par` — the workspace's shared data-parallel executor.
//!
//! The workspace is hermetic — no rayon — so every layer that fans work
//! out over threads goes through this crate, and the crate has one
//! executor. A call hands it its pieces; each piece sits in its own
//! slot, and the calling thread and up to `threads − 1` scoped helpers
//! claim slots off an atomic cursor until none is left, so uneven pieces
//! balance themselves and the caller works instead of waiting. Scoped
//! threads let pieces borrow topologies, spatial indices and output
//! columns by reference, so parallelism adds no copies. The primitives
//! only cut their input into pieces:
//!
//! * [`par_map_ranges`] — contiguous ranges of `0..n`, one result per
//!   range in range order: the UDG build, sender coverage and the
//!   topology-construction pipeline scatter over it.
//! * [`parallel_map`] — one piece per item of a heterogeneous work list
//!   (the figure sweeps), results in input order.
//! * [`par_fill_chunks`] / [`par_fill_chunk_pairs`] — contiguous
//!   `chunks_mut` windows of one caller-owned column (the grid build's
//!   cell ids and column gather), or of two cut at the same offsets
//!   (nearest-neighbour radii and positions): each piece writes its
//!   window in place, with no per-worker buffers to concatenate.
//! * [`par_fill_columns`] — caller-cut pieces of one slice, grouped into
//!   per-worker columns: the partition step of the grid build's parallel
//!   stable counting sort.
//! * [`par_scatter_u32`] — a sharded-accumulator counting kernel over
//!   [`par_map_ranges`] and [`par_fill_chunks`]: each range scatters
//!   increments into its own private `u32` buffer, and the buffers are
//!   summed window by window, so counting kernels never false-share a
//!   common output vector.
//!
//! One spawn path means one answer to each failure:
//!
//! * Helpers start through `std::thread::Builder::spawn_scoped`. When
//!   the OS refuses one (no room for its stack, a thread limit), spawning
//!   stops and the threads already running, the caller at least, drain
//!   the rest: fewer helpers, same result.
//! * A panic in a piece is resumed on the caller with its own payload,
//!   as a sequential loop would raise it.
//!
//! Determinism contract: every primitive returns results in input order
//! and changes only which thread runs a piece, never what it computes.
//! Callers that need bit-identical output across thread counts (the
//! topology pipeline's invariance tests) get it as long as their
//! per-piece closures are pure.
//!
//! Under `--obs`, each call that fans out counts its `par.pieces`,
//! `par.helpers_started` and `par.helpers_refused`.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Instance size from which a query loop over all nodes (UDG
/// construction, sender coverage, the topology-construction pipeline)
/// amortizes the spawn of scoped threads; smaller instances run inline.
pub const AUTO_PARALLEL_MIN: usize = 2048;

/// Worker count for a node-sized loop over `n` items: [`num_threads`]
/// from [`AUTO_PARALLEL_MIN`] on, 1 (inline) below it.
pub fn auto_threads(n: usize) -> usize {
    if n >= AUTO_PARALLEL_MIN {
        num_threads()
    } else {
        1
    }
}

/// Number of worker threads worth spawning on this machine; at least 1.
///
/// `std::thread::available_parallelism` fails only in exotic sandboxes,
/// where falling back to sequential execution is the right behaviour.
/// It reads the affinity mask and cgroup quota on every call (tens of
/// µs, more than a small grid build), so the answer is computed once
/// per process.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}

/// Recovers a slot's lock even when a piece panicked elsewhere: no piece
/// runs while a slot is locked, and each locked update is one complete
/// move, so the slot is valid whatever happened around it.
fn relock<T>(r: std::sync::LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The crate's one executor: runs `work(i, piece)` on every piece and
/// returns the results in piece order.
///
/// Piece `i` sits in slot `i`, and the calling thread and up to
/// `threads − 1` scoped helpers claim slots off an atomic cursor until
/// none is left. With one thread or at most one piece the pieces run
/// inline, thread-free. Spawning stops at the first helper the OS
/// refuses, or that would find no room left for its stack (see
/// [`room_for_a_helper`]); the threads already running drain the rest.
/// Each helper is joined, and a panic in any piece is resumed on the
/// caller with that piece's own payload (a piece on the caller unwinds
/// straight through the scope, which still joins the helpers first).
// rim-lint: root
fn run_pieces<P, R, F>(pieces: Vec<P>, threads: usize, work: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let helpers = threads.min(pieces.len()).saturating_sub(1);
    if helpers == 0 {
        return pieces.into_iter().enumerate().map(|(i, p)| work(i, p)).collect();
    }
    rim_obs::counter_add("par.pieces", pieces.len() as u64);
    let slots: Vec<_> =
        pieces.into_iter().map(|p| (Mutex::new(Some(p)), Mutex::new(None))).collect();
    let cursor = AtomicUsize::new(0);
    let drain = || loop {
        // A ticket decides which thread runs a piece, never what the
        // piece computes. Relaxed: a ticket publishes nothing, and each
        // slot's Mutex publishes its piece and its result.
        // rim-lint: allow(engine-determinism)
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some((piece, result)) = slots.get(i) else { break };
        let claimed = relock(piece.lock()).take();
        if let Some(p) = claimed {
            let r = work(i, p);
            *relock(result.lock()) = Some(r);
        }
    };
    std::thread::scope(|s| {
        let mut started = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            if !room_for_a_helper() {
                rim_obs::counter_add("par.helpers_refused", 1);
                break;
            }
            match std::thread::Builder::new().spawn_scoped(s, drain) {
                Ok(h) => started.push(h),
                Err(_) => {
                    rim_obs::counter_add("par.helpers_refused", 1);
                    break;
                }
            }
        }
        rim_obs::counter_add("par.helpers_started", started.len() as u64);
        drain();
        for h in started {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots.into_iter().filter_map(|(_, result)| relock(result.into_inner())).collect()
}

/// Address space a helper needs beyond its spawn: its 2 MiB default
/// stack, its signal stack and its first allocations, with room to spare.
const HELPER_ROOM: usize = 3 << 20;

/// Whether a fallible reservation of [`HELPER_ROOM`] bytes, released at
/// once, still fits. std maps a new thread's signal stack and makes its
/// first allocations inside the thread, where a failure aborts the
/// process instead of refusing the spawn; under an address-space cap
/// that is nearly used up, skipping the helper keeps the run alive, with
/// the same results from fewer threads.
fn room_for_a_helper() -> bool {
    Vec::<u8>::new().try_reserve_exact(HELPER_ROOM).is_ok()
}

/// Splits `0..n` into `chunks` contiguous ranges (the first `n % chunks`
/// ranges are one element longer) and runs `work` on each range,
/// returning results in range order.
///
/// `chunks` is clamped to `1..=max(n, 1)`, so `n == 0` runs `work(0..0)`
/// once. With one chunk the work runs inline on the calling thread.
// rim-lint: root
pub fn par_map_ranges<R, F>(n: usize, chunks: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunks = chunks.clamp(1, n.max(1));
    let (base, extra) = (n / chunks, n % chunks);
    let ranges: Vec<Range<usize>> = (0..chunks)
        .scan(0usize, |lo, i| {
            let len = base + usize::from(i < extra);
            let r = *lo..*lo + len;
            *lo += len;
            Some(r)
        })
        .collect();
    run_pieces(ranges, chunks, |_, r| work(r))
}

/// Runs a counting *scatter* in parallel with per-worker accumulators:
/// `scatter(range, buf)` must add each of range-item `i`'s contributions
/// into `buf[target]` for targets in `0..out_len`, and the per-worker
/// buffers are merged (element-wise `u32` sum) after the barrier.
///
/// This is the sharded alternative to handing every worker the same
/// output vector: each worker owns a private zeroed buffer, so there is
/// no false sharing on hot output cache lines and no synchronization in
/// the scatter loop.
///
/// # Determinism
///
/// The output is **thread-count-invariant by construction**: every
/// worker contributes a disjoint input range, each contribution is a
/// non-negative integer increment, and integer addition is associative
/// and commutative — so the merged totals are bit-identical for any
/// `chunks`, including the sequential `chunks <= 1` path which skips the
/// shard allocation entirely. (Callers must not rely on *visit order*
/// inside `scatter`; only additive writes keep the invariance.)
///
/// Counts saturate nowhere: callers guarantee each target receives fewer
/// than `u32::MAX` total increments (receiver-centric interference is
/// bounded by `n - 1 < u32::MAX` in this workspace — grids refuse more
/// than `u32::MAX` points).
// rim-lint: root
pub fn par_scatter_u32<F>(out_len: usize, n: usize, chunks: usize, scatter: F) -> Vec<u32>
where
    F: Fn(Range<usize>, &mut [u32]) + Sync,
{
    let chunks = chunks.clamp(1, n.max(1));
    if chunks == 1 {
        let mut out = vec![0u32; out_len];
        scatter(0..n, &mut out);
        return out;
    }
    rim_obs::counter_add("par.sharded_scatters", 1);
    let mut shards = par_map_ranges(n, chunks, |r| {
        let mut buf = vec![0u32; out_len];
        scatter(r, &mut buf);
        buf
    })
    .into_iter();
    // Merge into the first shard, one window per worker: each window
    // adds the other shards' matching windows in range order (order is
    // irrelevant to the sums, but keeping it fixed makes the reduction
    // trivially auditable), and no further buffer is allocated.
    let mut out = shards.next().unwrap_or_default();
    let rest: Vec<Vec<u32>> = shards.collect();
    par_fill_chunks(&mut out, chunks, |first, window| {
        for shard in &rest {
            for (o, s) in window.iter_mut().zip(shard.get(first..).unwrap_or_default()) {
                *o += s;
            }
        }
    });
    out
}

/// Fills `out` in place in parallel: the slice is cut into at most
/// `chunks` contiguous `chunks_mut` pieces of one length (the last may
/// be shorter), and `fill(offset, piece)` runs on each piece, where
/// `offset` is the index of the piece's first element in `out`.
///
/// Nothing is allocated per piece and nothing is concatenated: each
/// piece is a disjoint window of the caller's buffer. When every
/// element is a pure function of its index, the result is identical for
/// every `chunks`; with `chunks <= 1` `fill(0, out)` runs inline on the
/// calling thread, and an empty slice has no pieces.
// rim-lint: root
pub fn par_fill_chunks<T, F>(out: &mut [T], chunks: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len().div_ceil(chunks.max(1)).max(1);
    run_pieces(out.chunks_mut(len).collect(), chunks, |i, piece| fill(i * len, piece));
}

/// [`par_fill_chunks`] over two columns at once: `a` and `b` are cut at
/// the same offsets, and `fill(offset, a_piece, b_piece)` runs on each
/// pair of pieces, so one pass writes two columns of different types
/// (the streaming kernel's radii and nearest positions). The pieces
/// follow `a`'s cut and pair up while `b` lasts, so the columns should
/// have equal lengths. The same determinism rule holds as for
/// [`par_fill_chunks`].
// rim-lint: root
pub fn par_fill_chunk_pairs<A, B, F>(a: &mut [A], b: &mut [B], chunks: usize, fill: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    let len = a.len().div_ceil(chunks.max(1)).max(1);
    let pieces: Vec<_> = a.chunks_mut(len).zip(b.chunks_mut(len)).collect();
    run_pieces(pieces, chunks, |i, (pa, pb)| fill(i * len, pa, pb));
}

/// Fills disjoint pieces of `out` in parallel, each worker through its
/// own set of them, and returns the workers' results in worker order.
///
/// `lens` cuts `out` into consecutive pieces, and piece `j` belongs to
/// worker `j % workers`. Read row-major as a `rows × workers` table,
/// piece `(r, w)` has length `lens[r * workers + w]` and worker `w` owns
/// column `w`: `fill(w, pieces)` gets its pieces in row order. This is
/// the partition step of a parallel stable counting sort: rows are key
/// ranges, and worker `w` scatters its contiguous share of the input
/// into its column, so every row lists the workers' items in worker
/// order. With one row, worker `w` simply owns the `w`-th of `workers`
/// caller-sized windows.
///
/// The pieces cover a prefix of `out` when the lengths sum to less than
/// its length; pieces past its end come out short or empty. With
/// `workers <= 1` every piece belongs to worker 0, which runs inline on
/// the calling thread. When every element a worker writes is a pure
/// function of its inputs, the result does not depend on which thread
/// runs which column.
///
/// The workers' piece lists are reserved with `try_reserve_exact`, so
/// running out of memory for them is an [`AllocError`], not an abort.
// rim-lint: root
pub fn par_fill_columns<T, R, F>(
    out: &mut [T],
    workers: usize,
    lens: &[usize],
    fill: F,
) -> Result<Vec<R>, AllocError>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [&mut [T]]) -> R + Sync,
{
    let workers = workers.max(1);
    let mut columns: Vec<Vec<&mut [T]>> = Vec::new();
    try_reserve(&mut columns, workers)?;
    for _ in 0..workers {
        // Worker `w` owns pieces `w, w + workers, …`: at most this many.
        let mut column = Vec::new();
        try_reserve(&mut column, lens.len() / workers + 1)?;
        columns.push(column);
    }
    let mut rest = out;
    for (j, &len) in lens.iter().enumerate() {
        let cut = len.min(rest.len());
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut);
        rest = tail;
        if let Some(column) = columns.get_mut(j % workers) {
            column.push(piece);
        }
    }
    Ok(run_pieces(columns, workers, |w, mut pieces| fill(w, &mut pieces)))
}

/// An allocation of `bytes` bytes that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Size of the failed request.
    pub bytes: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allocating {} bytes failed", self.bytes)
    }
}

impl std::error::Error for AllocError {}

/// Reserves room for exactly `len` more items in `v`, or names the bytes
/// asked for.
fn try_reserve<T>(v: &mut Vec<T>, len: usize) -> Result<(), AllocError> {
    v.try_reserve_exact(len).map_err(|_| AllocError {
        bytes: len.saturating_mul(std::mem::size_of::<T>()),
    })
}

/// Applies `f` to every item of `params` on up to [`num_threads`]
/// threads, preserving order.
///
/// Every item is a piece of its own, so heterogeneous item costs balance
/// themselves: a slow item (a long simulation, a big sweep point) never
/// idles the other threads the way a static split would. `f` must be
/// `Sync` (it is shared across threads) and items are consumed by value.
// rim-lint: root
pub fn parallel_map<P, R, F>(params: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    run_pieces(params, num_threads(), |_, p| f(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_range_exactly_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = par_map_ranges(n, chunks, |r| r);
                let mut seen = vec![false; n];
                for r in ranges {
                    for i in r {
                        assert!(!seen[i], "n={n} chunks={chunks} i={i} visited twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} chunks={chunks}");
            }
        }
    }

    #[test]
    fn results_arrive_in_range_order() {
        let sums = par_map_ranges(100, 4, |r| r.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
        assert_eq!(sums, vec![300, 925, 1550, 2175]);
    }

    #[test]
    fn sequential_fallback_matches() {
        let seq = par_map_ranges(10, 1, |r| r.collect::<Vec<_>>());
        assert_eq!(seq, vec![(0..10).collect::<Vec<_>>()]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn map_preserves_order() {
        let out = parallel_map((0..100).collect(), |i: i32| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn map_single_item() {
        assert_eq!(parallel_map(vec![7], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn scatter_u32_is_thread_count_invariant() {
        // A deterministic scatter: item i increments (i*i + 3) % out_len
        // and i % out_len. Totals must be identical for every chunking.
        let out_len = 37;
        let n = 500;
        let run = |chunks| {
            par_scatter_u32(out_len, n, chunks, |range, buf| {
                for i in range {
                    buf[(i * i + 3) % out_len] += 1;
                    buf[i % out_len] += 1;
                }
            })
        };
        let reference = run(1);
        assert_eq!(reference.iter().map(|&c| c as usize).sum::<usize>(), 2 * n);
        for chunks in 2..=8 {
            assert_eq!(run(chunks), reference, "chunks={chunks}");
        }
    }

    #[test]
    fn scatter_u32_handles_empty_and_degenerate() {
        assert_eq!(par_scatter_u32(4, 0, 3, |_, _| {}), vec![0; 4]);
        assert_eq!(par_scatter_u32(0, 10, 3, |_, _| {}), Vec::<u32>::new());
        let one = par_scatter_u32(2, 1, 200, |r, buf| {
            for _ in r {
                buf[1] += 7;
            }
        });
        assert_eq!(one, vec![0, 7]);
    }

    #[test]
    fn fill_chunks_writes_every_slot_once_with_its_index() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [0usize, 1, 2, 3, 8, 200] {
                let mut out = vec![usize::MAX; n];
                par_fill_chunks(&mut out, chunks, |offset, piece| {
                    for (i, slot) in piece.iter_mut().enumerate() {
                        assert_eq!(*slot, usize::MAX, "slot written twice");
                        *slot = offset + i;
                    }
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} chunks={chunks}");
            }
        }
    }

    #[test]
    fn fill_chunk_pairs_cut_both_columns_at_the_same_offsets() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [0usize, 1, 2, 3, 8, 200] {
                let (mut a, mut b) = (vec![usize::MAX; n], vec![u8::MAX; n]);
                par_fill_chunk_pairs(&mut a, &mut b, chunks, |offset, pa, pb| {
                    assert_eq!(pa.len(), pb.len(), "pieces pair up");
                    for (i, (x, y)) in pa.iter_mut().zip(pb).enumerate() {
                        assert_eq!((*x, *y), (usize::MAX, u8::MAX), "slot written twice");
                        (*x, *y) = (offset + i, ((offset + i) % 251) as u8);
                    }
                });
                assert_eq!(a, (0..n).collect::<Vec<_>>(), "n={n} chunks={chunks}");
                assert!(b.iter().enumerate().all(|(i, &y)| usize::from(y) == i % 251));
            }
        }
    }

    #[test]
    fn fill_columns_hands_each_worker_its_column_in_row_order() {
        // Three rows over `workers` columns with uneven, partly empty
        // pieces: every element is written once, by the owner of its
        // piece, and each worker sees its pieces in row order.
        for workers in [0usize, 1, 2, 3, 5] {
            let cols = workers.max(1);
            let lens: Vec<usize> = (0..3 * cols).map(|j| (j * 7 + 3) % 5).collect();
            let total: usize = lens.iter().sum();
            let mut out = vec![(usize::MAX, usize::MAX); total + 2];
            let seen = par_fill_columns(&mut out, workers, &lens, |w, pieces| {
                for (r, piece) in pieces.iter_mut().enumerate() {
                    for slot in piece.iter_mut() {
                        assert_eq!(*slot, (usize::MAX, usize::MAX), "slot written twice");
                        *slot = (w, r);
                    }
                }
                pieces.iter().map(|p| p.len()).collect::<Vec<_>>()
            })
            .unwrap();
            let mut want = Vec::new();
            for (j, &len) in lens.iter().enumerate() {
                want.extend(std::iter::repeat_n((j % cols, j / cols), len));
            }
            want.extend([(usize::MAX, usize::MAX); 2]); // past the pieces: untouched
            assert_eq!(out, want, "workers={workers}");
            let by_worker: Vec<Vec<usize>> =
                (0..cols).map(|w| lens.iter().skip(w).step_by(cols).copied().collect()).collect();
            assert_eq!(seen, by_worker, "workers={workers}");
        }
    }

    #[test]
    fn fill_columns_truncates_pieces_past_the_end() {
        let mut out = vec![0u8; 5];
        let lens = par_fill_columns(&mut out, 2, &[3, 4, 2, 1], |w, pieces| {
            for piece in pieces.iter_mut() {
                piece.fill(w as u8 + 1);
            }
            pieces.iter().map(|p| p.len()).collect::<Vec<_>>()
        });
        assert_eq!(out, vec![1, 1, 1, 2, 2]);
        assert_eq!(lens, Ok(vec![vec![3, 0], vec![2, 0]]));
        assert_eq!(par_fill_columns(&mut [0u8; 0], 3, &[], |w, _| w), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn fill_columns_reports_piece_lists_it_cannot_allocate() {
        // A list past the address space fails without aborting and
        // names its size, saturated.
        let err = try_reserve(&mut Vec::<&mut [u8]>::new(), usize::MAX / 2).unwrap_err();
        assert_eq!(err.bytes, usize::MAX);
        assert!(err.to_string().contains("bytes failed"), "{err}");
    }

    #[test]
    fn map_balances_heterogeneous_work() {
        // One huge item among many tiny ones: self-scheduling must still
        // return every result, in order.
        let out = parallel_map((1..=64u64).collect(), |n| {
            let reps = if n == 1 { 100_000 } else { 10 };
            (0..reps).map(|i| i % n).sum::<u64>()
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], (0..10).map(|i| i % 2).sum::<u64>());
    }

    /// A call of one primitive whose pieces each run the hook it is handed.
    type Call = fn(&(dyn Fn() + Sync));

    /// Runs `call` and returns the `String` payload the calling thread
    /// caught. The hook panics with a payload naming its side on one side
    /// (the calling thread when `on_caller` holds, a helper otherwise)
    /// and on the other blocks until the panicking side has started (for
    /// at most a minute, in case no helper could be spawned), so neither
    /// side can drain every piece itself.
    fn caught(on_caller: bool, call: Call) -> Option<String> {
        let caller = std::thread::current().id();
        let (started, wait) = std::sync::mpsc::sync_channel::<()>(8);
        let wait = Mutex::new(wait);
        let hook = move || {
            if (std::thread::current().id() == caller) == on_caller {
                let _ = started.try_send(());
                std::panic::panic_any(format!("piece on caller: {on_caller}"));
            }
            let _ = relock(wait.lock()).recv_timeout(std::time::Duration::from_secs(60));
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&hook)));
        result.err().map(|payload| match payload.downcast::<String>() {
            Ok(own) => *own,
            Err(other) => format!("not a piece's payload: {:?}", other.downcast_ref::<&str>()),
        })
    }

    #[test]
    fn every_primitive_resumes_a_panicking_pieces_own_payload() {
        let calls: [(&str, Call); 6] = [
            ("par_map_ranges", |hook| drop(par_map_ranges(2, 2, |_| hook()))),
            ("par_scatter_u32", |hook| drop(par_scatter_u32(1, 2, 2, |_, _| hook()))),
            ("par_fill_chunks", |hook| par_fill_chunks(&mut [0u8; 2], 2, |_, _| hook())),
            ("par_fill_chunk_pairs", |hook| {
                par_fill_chunk_pairs(&mut [0u8; 2], &mut [0u8; 2], 2, |_, _, _| hook())
            }),
            ("par_fill_columns", |hook| {
                drop(par_fill_columns(&mut [0u8; 2], 2, &[1, 1], |_, _| hook()))
            }),
            ("parallel_map", |hook| drop(parallel_map(vec![0u8, 1], |_| hook()))),
        ];
        for (name, call) in calls {
            // `parallel_map` runs on `num_threads()`: inline on one core.
            if name == "parallel_map" && num_threads() == 1 {
                continue;
            }
            for on_caller in [false, true] {
                let want = format!("piece on caller: {on_caller}");
                assert_eq!(caught(on_caller, call), Some(want), "{name}");
            }
        }
    }
}
