//! Order-preserving parallel map over index ranges.
//!
//! The workspace previously leaned on `rayon`, which the offline build
//! environment cannot fetch; this module provides the one shape of
//! parallelism the codebase actually uses — `(0..n)` mapped through a pure
//! function, results collected in index order — on `std::thread::scope`.
//!
//! Determinism: the output of [`map_indexed`] depends only on `f`, never on
//! the thread schedule. Work is handed out as contiguous index chunks via
//! an atomic cursor (so fast threads steal remaining chunks), and each
//! chunk's results are stitched back in index order at the end.
//!
//! Thread count comes from `std::thread::available_parallelism`, overridden
//! by the `ICN_THREADS` environment variable when set (useful for overhead
//! experiments, CI determinism checks and bench sweeps — though results
//! never depend on it). The override may exceed the hardware count, so
//! benches can pin a worker count on any machine.
//!
//! Observability: when the global `icn_obs` registry is collecting,
//! [`map_indexed`] hands the dispatching thread's open span to every
//! worker ([`icn_obs::current_handoff`]), so spans opened inside `f`
//! parent to the dispatching stage — the span tree looks the same at any
//! `ICN_THREADS`, including the sequential fallback. With observability
//! disabled this costs a single relaxed atomic load per call.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Effective worker-thread count for parallel sections: the `ICN_THREADS`
/// environment override when set (≥ 1, may exceed the hardware count),
/// otherwise `std::thread::available_parallelism`. This is also the value
/// bench reports record as `env.threads`; results never depend on it.
pub fn thread_count() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |v| v.get());
    std::env::var("ICN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(hw)
}

/// Number of worker threads to use for `n` items.
fn workers_for(n: usize) -> usize {
    thread_count().min(n.max(1))
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// `f` must be pure with respect to its argument for the result to be
/// deterministic (all call sites in this workspace fork per-index RNG
/// streams, which preserves that).
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = workers_for(n);
    if threads <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    // ~4 chunks per thread balances stealing against bookkeeping.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    // Capture the dispatching thread's open span (None when observability
    // is disabled — one relaxed load) so spans opened inside `f` on the
    // workers parent to the dispatching stage instead of becoming
    // disconnected roots. Purely observational: no effect on results.
    let handoff = icn_obs::current_handoff();
    std::thread::scope(|scope| {
        let (cursor, parts, f) = (&cursor, &parts, &f);
        for _ in 0..threads {
            let handoff = handoff.clone();
            scope.spawn(move || {
                let _adopt = handoff.as_ref().map(icn_obs::Handoff::adopt);
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    let block: Vec<R> = (start..end).map(f).collect();
                    parts
                        .lock()
                        .expect("par worker poisoned")
                        .push((start, block));
                }
            });
        }
    });
    let mut parts = parts.into_inner().expect("par result poisoned");
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, block) in parts {
        out.extend(block);
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Maps `f` over contiguous index chunks of width `chunk`, in parallel,
/// returning the per-chunk results in chunk order.
///
/// This is the deterministic chunk-reduction building block for kernels
/// that fold many work items into one accumulator per chunk (e.g. one SHAP
/// matrix per sample chunk, summed over trees in a fixed order): because a
/// chunk is processed start-to-finish by exactly one worker, any in-chunk
/// reduction order the caller chooses is preserved bit-for-bit regardless
/// of the thread count, and stitching the chunk results back in index
/// order yields a schedule-independent total result.
///
/// The final chunk may be shorter than `chunk` when `chunk` does not
/// divide `n`.
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk >= 1, "par::map_chunks: chunk must be >= 1");
    let n_chunks = n.div_ceil(chunk);
    map_indexed(n_chunks, |ci| {
        let start = ci * chunk;
        f(start..(start + chunk).min(n))
    })
}

/// Fills `out` in place, in parallel, by contiguous chunks of `chunk`
/// elements: `f(range, slice)` receives each chunk's global index range and
/// the matching mutable sub-slice (`slice.len() == range.len()`; the final
/// chunk may be shorter).
///
/// This is the zero-copy sibling of [`map_chunks`] for kernels whose output
/// is one large flat buffer (e.g. the forest's per-row OOB vote slots): the
/// caller allocates once and workers write their disjoint windows directly,
/// instead of allocating per-chunk vectors that get stitched back with an
/// extra pass over the whole buffer. Determinism is structural — the chunk
/// partition depends only on `out.len()` and `chunk`, each element is
/// written by exactly one chunk, and `f` sees the same `(range, data)`
/// pairs at any thread count (including the sequential fallback).
///
/// The disjoint hand-out is `split_at_mut` + one `Mutex<Option<&mut [T]>>`
/// per chunk (taken exactly once, under an atomic cursor), so no `unsafe`
/// is involved.
pub fn fill_chunks<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(chunk >= 1, "par::fill_chunks: chunk must be >= 1");
    let n = out.len();
    let n_chunks = n.div_ceil(chunk);
    let mut bounds = Vec::with_capacity(n_chunks + 1);
    bounds.extend((0..n_chunks).map(|c| c * chunk));
    bounds.push(n);
    fill_blocks(out, &bounds, |b, s| {
        let lo = b * chunk;
        f(lo..lo + s.len(), s);
    });
}

/// Fills `out` in place, in parallel, by the caller's own block partition:
/// `bounds` is the ascending list of cut offsets (`bounds[0] == 0`,
/// `bounds.last() == out.len()`), and `f(b, slice)` receives each block
/// index `b` with the mutable window `out[bounds[b]..bounds[b + 1]]`.
///
/// This is [`fill_chunks`] for irregular partitions — e.g. the condensed
/// distance matrix, where row-block `i` holds `n − 1 − i` entries, so equal
/// *row* chunks are unequal *element* spans. Empty blocks are allowed (their
/// slice is empty). Determinism is structural, exactly as in
/// [`fill_chunks`]: the partition is caller-fixed, every element belongs to
/// one block, and `f` sees the same `(b, data)` pairs at any thread count.
pub fn fill_blocks<T, F>(out: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        bounds.first() == Some(&0) && bounds.last() == Some(&out.len()),
        "par::fill_blocks: bounds must run from 0 to out.len()"
    );
    let n_blocks = bounds.len() - 1;
    let threads = workers_for(n_blocks);
    if threads <= 1 || n_blocks < 2 {
        let mut rest = out;
        for b in 0..n_blocks {
            assert!(
                bounds[b] <= bounds[b + 1],
                "par::fill_blocks: descending bounds"
            );
            let (head, tail) = rest.split_at_mut(bounds[b + 1] - bounds[b]);
            rest = tail;
            f(b, head);
        }
        return;
    }
    // Disjoint hand-out: each block's window sits behind its own
    // `Mutex<Option<..>>`, taken exactly once under an atomic cursor — no
    // `unsafe`, and the lock per block is negligible next to block work.
    let mut slices: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(n_blocks);
    {
        let mut rest = out;
        for b in 0..n_blocks {
            assert!(
                bounds[b] <= bounds[b + 1],
                "par::fill_blocks: descending bounds"
            );
            let (head, tail) = rest.split_at_mut(bounds[b + 1] - bounds[b]);
            rest = tail;
            slices.push(Mutex::new(Some(head)));
        }
    }
    let cursor = AtomicUsize::new(0);
    let handoff = icn_obs::current_handoff();
    std::thread::scope(|scope| {
        let (cursor, slices, f) = (&cursor, &slices, &f);
        for _ in 0..threads {
            let handoff = handoff.clone();
            scope.spawn(move || {
                let _adopt = handoff.as_ref().map(icn_obs::Handoff::adopt);
                loop {
                    let b = cursor.fetch_add(1, Ordering::Relaxed);
                    if b >= slices.len() {
                        break;
                    }
                    let taken = slices[b].lock().expect("par fill poisoned").take();
                    if let Some(s) = taken {
                        f(b, s);
                    }
                }
            });
        }
    });
}

/// Parallel sum of `f(i)` over `0..n` (order-independent reduction of an
/// associative/commutative combination; used where rayon's `map().sum()`
/// was). Summation order is fixed (index order) so results are bit-stable.
pub fn sum_indexed<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    map_indexed(n, f).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = map_indexed(1000, |i| i * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn matches_sequential_map() {
        let f = |i: usize| (i as f64).sin() * (i as f64 + 1.0).ln();
        let par: Vec<f64> = map_indexed(777, f);
        let seq: Vec<f64> = (0..777).map(f).collect();
        assert_eq!(par, seq); // bit-for-bit
    }

    #[test]
    fn handles_tiny_and_empty_inputs() {
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn sum_matches_sequential() {
        let s = sum_indexed(500, |i| 1.0 / (i as f64 + 1.0));
        let t: f64 = (0..500).map(|i| 1.0 / (i as f64 + 1.0)).sum();
        assert_eq!(s, t);
    }

    #[test]
    fn non_copy_results_supported() {
        let out = map_indexed(50, |i| vec![i; i % 5]);
        assert_eq!(out[4], vec![4; 4]);
    }

    #[test]
    fn map_chunks_covers_ranges_in_order() {
        // 10 items in chunks of 3: ragged tail chunk of 1.
        let ranges = map_chunks(10, 3, |r| (r.start, r.end));
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        // Chunk wider than n: one chunk.
        assert_eq!(map_chunks(4, 100, |r| r.len()), vec![4]);
        // Empty input: no chunks.
        assert_eq!(map_chunks(0, 5, |r| r.len()), Vec::<usize>::new());
    }

    #[test]
    fn map_chunks_matches_sequential_fold() {
        let f = |i: usize| (i as f64).cos();
        let chunked: Vec<f64> = map_chunks(523, 17, |r| r.map(f).sum::<f64>());
        let seq: Vec<f64> = (0..523)
            .collect::<Vec<usize>>()
            .chunks(17)
            .map(|c| c.iter().map(|&i| f(i)).sum::<f64>())
            .collect();
        assert_eq!(chunked, seq); // bit-for-bit: in-chunk order is preserved
    }

    #[test]
    #[should_panic(expected = "chunk must be >= 1")]
    fn map_chunks_rejects_zero_chunk() {
        map_chunks(10, 0, |r| r.len());
    }

    #[test]
    fn fill_chunks_writes_every_element_once() {
        let mut out = vec![0usize; 523];
        fill_chunks(&mut out, 17, |r, s| {
            assert_eq!(s.len(), r.len());
            for (k, v) in r.zip(s.iter_mut()) {
                *v += k * 3 + 1; // += would expose double-writes
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 3 + 1);
        }
    }

    #[test]
    fn fill_chunks_matches_map_chunks_stitch() {
        let f = |i: usize| (i as f64).sin() * (i as f64 + 2.0).ln();
        let stitched: Vec<f64> = map_chunks(777, 31, |r| r.map(f).collect::<Vec<f64>>())
            .into_iter()
            .flatten()
            .collect();
        let mut filled = vec![0.0f64; 777];
        fill_chunks(&mut filled, 31, |r, s| {
            for (k, v) in r.zip(s.iter_mut()) {
                *v = f(k);
            }
        });
        assert_eq!(
            stitched.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            filled.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn fill_chunks_thread_invariant_and_degenerate() {
        // Single-chunk and empty buffers take the sequential fallback.
        let mut one = vec![0u8; 3];
        fill_chunks(&mut one, 100, |r, s| {
            assert_eq!(r, 0..3);
            s.fill(9);
        });
        assert_eq!(one, vec![9, 9, 9]);
        let mut empty: Vec<u8> = Vec::new();
        fill_chunks(&mut empty, 4, |_, _| panic!("no chunks expected"));
        // Pinned single thread writes the same bytes as the default count.
        let render = |buf: &mut [u64]| {
            fill_chunks(buf, 13, |r, s| {
                for (k, v) in r.zip(s.iter_mut()) {
                    *v = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                }
            });
        };
        let mut multi = vec![0u64; 301];
        render(&mut multi);
        std::env::set_var("ICN_THREADS", "1");
        let mut single = vec![0u64; 301];
        render(&mut single);
        std::env::remove_var("ICN_THREADS");
        assert_eq!(multi, single);
    }

    #[test]
    #[should_panic(expected = "chunk must be >= 1")]
    fn fill_chunks_rejects_zero_chunk() {
        fill_chunks(&mut [0u8; 4][..], 0, |_, _| {});
    }

    #[test]
    fn worker_spans_adopt_the_dispatching_span() {
        // Only this test in the icn-stats binary touches the global
        // registry, so no cross-test lock is needed here.
        let reg = icn_obs::global();
        reg.reset();
        reg.enable();
        {
            let _stage = icn_obs::Span::enter("dispatch");
            let out = map_indexed(64, |i| {
                let _s = icn_obs::Span::enter("work");
                i * 2
            });
            assert_eq!(out[10], 20);
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        // Worker spans landed under the dispatching span, never as roots.
        assert_eq!(snap.spans["dispatch/work"].0, 64);
        assert!(!snap.spans.contains_key("work"));
        let dispatch = snap
            .span_tree
            .iter()
            .find(|s| s.path == "dispatch")
            .unwrap();
        for s in snap.span_tree.iter().filter(|s| s.path == "dispatch/work") {
            assert_eq!(s.parent, Some(dispatch.id));
        }
    }

    #[test]
    fn thread_count_honors_env_override() {
        std::env::set_var("ICN_THREADS", "3");
        let n = thread_count();
        std::env::remove_var("ICN_THREADS");
        assert_eq!(n, 3);
        // Invalid values fall back to hardware parallelism.
        std::env::set_var("ICN_THREADS", "zero");
        let fallback = thread_count();
        std::env::remove_var("ICN_THREADS");
        assert!(fallback >= 1);
    }
}
