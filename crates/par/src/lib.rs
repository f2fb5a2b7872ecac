//! `rim-par` — the workspace's shared data-parallel executor.
//!
//! The workspace is hermetic — no rayon — so every layer that fans work
//! out over threads shares the two primitives in this crate instead of
//! growing its own pool:
//!
//! * [`par_map_ranges`] — the chunked scoped-thread *scatter executor*:
//!   it carves `0..n` into contiguous ranges, runs one scoped thread per
//!   range, and returns the per-range results in order. The interference
//!   kernel (`rim_core::stream`) and the topology-construction
//!   pipeline (`rim_topology_control`) both scatter over it; scoped
//!   threads let closures borrow topologies and spatial indices by
//!   reference, so parallelism adds no copies.
//! * [`parallel_map`] — an order-preserving map over heterogeneous work
//!   items with *dynamic* self-scheduling: workers claim items off an
//!   atomic cursor, so a slow item (a long simulation, a big sweep
//!   point) never idles the other workers the way a static split would.
//!   This replaces the Mutex-queue worker pool `rim_bench::sweep` used
//!   to carry; the only locks left are uncontended per-slot ones.
//! * [`par_scatter_u32`] — a sharded-accumulator counting kernel: each
//!   worker scatters increments into its own private `u32` buffer and
//!   the buffers are summed at the barrier, window by window on the same
//!   workers, so counting kernels (the interference scatter) never
//!   false-share a common output vector.
//! * [`par_fill_chunks`] — an in-place parallel fill: contiguous
//!   `chunks_mut` windows of one caller-owned slice, one scoped thread
//!   each, so per-element kernels (the grid build's cell ids and column
//!   gather) write their column directly with no per-worker buffers to
//!   concatenate; [`par_fill_chunk_pairs`] fills two columns cut at the
//!   same offsets (nearest-neighbour radii and positions).
//! * [`par_fill_columns`] — an in-place parallel fill through caller-cut
//!   pieces, each worker owning one column of a `rows × workers` table of
//!   them: the partition step of the grid build's parallel stable
//!   counting sort.
//!
//! Determinism contract: every primitive returns results in input order,
//! and none changes *what* is computed — only where. Callers that
//! need bit-identical output across thread counts (the topology
//! pipeline's invariance tests) get it for free as long as their
//! per-item closures are pure.

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

/// Splits `0..n` into `chunks` contiguous ranges (the first `n % chunks`
/// ranges are one element longer) and runs `work` on each range in its
/// own scoped thread, returning results in range order.
///
/// With `chunks <= 1` (or `n == 0`) the work runs inline on the calling
/// thread — the sequential path stays allocation- and thread-free. A
/// panic in any worker is resumed on the caller, as a plain sequential
/// loop would.
pub fn par_map_ranges<R, F>(n: usize, chunks: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunks = chunks.clamp(1, n.max(1));
    if chunks == 1 {
        return vec![work(0..n)];
    }
    rim_obs::counter_add("par.scatter_chunks", chunks as u64);
    let base = n / chunks;
    let extra = n % chunks;
    let bounds: Vec<Range<usize>> = (0..chunks)
        .scan(0usize, |lo, i| {
            let len = base + usize::from(i < extra);
            let r = *lo..*lo + len;
            *lo += len;
            Some(r)
        })
        .collect();
    let workref = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|r| s.spawn(move || workref(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
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

/// Fills `out` in place in parallel: the slice is split into `chunks`
/// contiguous `chunks_mut` pieces, and `fill(offset, piece)` runs on each
/// piece in its own scoped thread, where `offset` is the index of the
/// piece's first element in `out`.
///
/// Nothing is allocated per piece and nothing is concatenated: each
/// worker writes straight into its own disjoint window of the caller's
/// buffer. When every element is a pure function of its index, the
/// result is identical for every `chunks`; with `chunks <= 1` (or an
/// empty slice) `fill(0, out)` runs inline on the calling thread. A
/// panic in any worker is resumed on the caller.
pub fn par_fill_chunks<T, F>(out: &mut [T], chunks: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // A column of `()` occupies no memory.
    let mut none = vec![(); out.len()];
    par_fill_chunk_pairs(out, &mut none, chunks, |first, piece, _| fill(first, piece));
}

/// [`par_fill_chunks`] over two columns at once: `a` and `b` are cut at
/// the same offsets, and `fill(offset, a_piece, b_piece)` runs on each
/// pair of pieces in its own scoped thread, so one pass writes two
/// columns of different types (the streaming kernel's radii and nearest
/// positions). The pieces follow `a`'s cut and pair up while `b` lasts,
/// so the columns should have equal lengths. The same determinism and
/// panic rules hold as for [`par_fill_chunks`].
pub fn par_fill_chunk_pairs<A, B, F>(a: &mut [A], b: &mut [B], chunks: usize, fill: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    let n = a.len();
    let chunks = chunks.clamp(1, n.max(1));
    if chunks == 1 {
        fill(0, a, b);
        return;
    }
    rim_obs::counter_add("par.fill_chunks", chunks as u64);
    let len = n.div_ceil(chunks);
    let fill = &fill;
    std::thread::scope(|s| {
        let handles: Vec<_> = a
            .chunks_mut(len)
            .zip(b.chunks_mut(len))
            .enumerate()
            .map(|(i, (pa, pb))| s.spawn(move || fill(i * len, pa, pb)))
            .collect();
        for h in handles {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
}

/// Fills disjoint pieces of `out` in parallel, each worker through its
/// own set of them, and returns the workers' results in worker order.
///
/// `lens` cuts `out` into consecutive pieces, and piece `j` belongs to
/// worker `j % workers`. Read row-major as a `rows × workers` table,
/// piece `(r, w)` has length `lens[r * workers + w]` and worker `w` owns
/// column `w`: `fill(w, pieces)` gets its pieces in row order, on its own
/// scoped thread. This is the partition step of a parallel stable
/// counting sort: rows are key ranges, and worker `w` scatters its
/// contiguous share of the input into its column, so every row lists the
/// workers' items in worker order. With one row, worker `w` simply owns
/// the `w`-th of `workers` caller-sized windows.
///
/// The pieces cover a prefix of `out` when the lengths sum to less than
/// its length; pieces past its end come out short or empty. With
/// `workers <= 1` every piece belongs to worker 0, which runs inline on
/// the calling thread. When every element a worker writes is a pure
/// function of its inputs, the result does not depend on thread
/// scheduling. A panic in any worker is resumed on the caller.
pub fn par_fill_columns<T, R, F>(out: &mut [T], workers: usize, lens: &[usize], fill: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [&mut [T]]) -> R + Sync,
{
    let workers = workers.max(1);
    let mut columns: Vec<Vec<&mut [T]>> = (0..workers)
        .map(|_| Vec::with_capacity(lens.len() / workers + 1))
        .collect();
    let mut rest = out;
    for (j, &len) in lens.iter().enumerate() {
        let cut = len.min(rest.len());
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut);
        rest = tail;
        if let Some(column) = columns.get_mut(j % workers) {
            column.push(piece);
        }
    }
    if workers == 1 {
        return columns.into_iter().map(|mut pieces| fill(0, &mut pieces)).collect();
    }
    rim_obs::counter_add("par.fill_columns", workers as u64);
    let fill = &fill;
    std::thread::scope(|s| {
        let handles: Vec<_> = columns
            .into_iter()
            .enumerate()
            .map(|(w, mut pieces)| s.spawn(move || fill(w, &mut pieces)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Recovers a lock even when a sibling worker panicked: the enclosing
/// scope re-raises the panic anyway, so the inner value is safe to use.
fn relock<T>(r: std::sync::LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Applies `f` to every item of `params` in parallel, preserving order.
///
/// Work is self-scheduled: each worker claims the next unclaimed index
/// off an atomic cursor, so heterogeneous item costs balance themselves
/// (no static split, no central queue lock — input and output slots each
/// sit behind their own uncontended `Mutex`). `f` must be `Sync` (it is
/// shared across threads) and items are consumed by value. Panics in
/// workers propagate to the caller.
// `i >= n` is checked before indexing, and a missing output slot only
// re-raises a worker panic the scope already propagated.
// rim-lint: allow(panic-freedom)
pub fn parallel_map<P, R, F>(params: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = params.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = num_threads().min(n);
    if threads <= 1 {
        return params.into_iter().map(f).collect();
    }
    let input: Vec<Mutex<Option<P>>> = params.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let output: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut claimed = 0u64;
                loop {
                    // Relaxed: the cursor is a pure claim ticket; the Mutex
                    // around each slot publishes the claimed payload.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    claimed += 1;
                    let item = relock(input[i].lock()).take();
                    if let Some(p) = item {
                        let r = f(p);
                        *relock(output[i].lock()) = Some(r);
                    }
                }
                // Per-worker load: the spread of this histogram is the
                // balance signal for the dynamic self-scheduler. Every
                // worker also exits through exactly one wasted cursor
                // claim (the `i >= n` overshoot), so the counter is a
                // proxy for end-of-queue cursor contention.
                rim_obs::record("par.tasks_per_worker", claimed);
                rim_obs::counter_add("par.cursor_overshoot", 1);
            });
        }
    });
    output
        .into_iter()
        // Each index is claimed and written exactly once; a missing slot
        // means a worker panicked, which the scope above already
        // re-raised. rim-lint: allow(no-unwrap-in-lib)
        .map(|m| relock(m.into_inner()).expect("worker failed to produce a result"))
        .collect()
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
            });
            let mut want = Vec::new();
            for (j, &len) in lens.iter().enumerate() {
                want.extend(std::iter::repeat((j % cols, j / cols)).take(len));
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
        assert_eq!(lens, vec![vec![3, 0], vec![2, 0]]);
        assert_eq!(par_fill_columns(&mut [0u8; 0], 3, &[], |w, _| w), vec![0, 1, 2]);
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
}
