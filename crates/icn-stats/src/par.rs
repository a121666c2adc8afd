//! Order-preserving parallel map over index ranges.
//!
//! The workspace previously leaned on `rayon`, which the offline build
//! environment cannot fetch; this module provides the shape of
//! parallelism the codebase mostly uses — `(0..n)` mapped through a pure
//! function, results collected in index order — on `std::thread::scope`.
//! For loops of many short dependent rounds, [`with_team`] keeps helper
//! threads alive for one call and hands each round over without a spawn.
//!
//! One dispatcher, [`fill_blocks`], starts the threads of every parallel
//! region but a [`with_team`]: it hands out contiguous blocks of one
//! output buffer via an atomic cursor (so fast threads steal remaining
//! blocks), and each block is written by exactly one worker. [`fill_chunks`]
//! is that fill over equal chunks, and [`map_indexed`] and [`map_chunks`]
//! are fills of one result slot per index or chunk.
//!
//! Determinism: the output of [`map_indexed`] depends only on `f`, never on
//! the thread schedule — every result lands in its own slot, in index
//! order, whichever worker computed it.
//!
//! Thread count comes from `std::thread::available_parallelism`, overridden
//! by the `ICN_THREADS` environment variable when set (useful for overhead
//! experiments, CI determinism checks and bench sweeps — though results
//! never depend on it). The override may exceed the hardware count, so
//! benches can pin a worker count on any machine.
//!
//! Observability: when the global `icn_obs` registry is collecting, the
//! dispatcher hands the dispatching thread's open span to every
//! worker ([`icn_obs::current_handoff`]), so spans opened inside `f`
//! parent to the dispatching stage — the span tree looks the same at any
//! `ICN_THREADS`, including the sequential fallback. With observability
//! disabled this costs a single relaxed atomic load per call.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
/// streams, which preserves that). Each result lands in its own slot of
/// one buffer, filled by [`fill_chunks`] in chunks of `n / (4·threads)`
/// indices (~4 chunks per thread balances stealing against bookkeeping).
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = (n / (workers_for(n) * 4)).max(1);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    fill_chunks(&mut slots, chunk, |range, out| {
        for (i, slot) in range.zip(out) {
            *slot = Some(f(i));
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("par::map_indexed: slot filled"))
        .collect()
}

/// Maps `f` over contiguous index chunks of width `chunk`, in parallel,
/// returning the per-chunk results in chunk order.
///
/// This is the deterministic chunk-reduction building block for kernels
/// that fold many work items into one accumulator per chunk (e.g. one SHAP
/// matrix per sample chunk, summed over trees in a fixed order): because a
/// chunk is processed start-to-finish by exactly one worker, any in-chunk
/// reduction order the caller chooses is preserved bit-for-bit regardless
/// of the thread count, and collecting the chunk results in index order
/// yields a schedule-independent total result.
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

/// Helper threads a [`with_team`] call may start: one fewer than
/// [`thread_count`], and never more than the hardware has cores to spare,
/// because a helper waits for its next round by spinning. Zero at
/// `ICN_THREADS=1`.
pub fn team_helpers() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |v| v.get());
    thread_count().min(hw) - 1
}

/// Spins before each yield while a team thread waits for a round.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// Waits for `ready` by spinning, then by yielding the core.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// A caller and the helper threads of one [`with_team`] call, splitting
/// rounds of work that are too short to spawn threads for.
///
/// [`Team::run`] posts a round, runs part 0 of it on the calling thread
/// while each helper runs one other part, and hands the part results back
/// in part order once every part is done. Helpers wait between rounds by
/// spinning, then yielding (`spin_until`); a posted round reaches them
/// through a release/acquire counter, and their finished parts reach the
/// caller the same way, so whatever a part writes is visible to
/// everything after the round.
pub struct Team<'w, T, R> {
    work: &'w (dyn Fn(T, usize, usize) -> R + Sync),
    helpers: usize,
    task: Mutex<Option<T>>,
    /// Each helper's result of the current round, by part − 1.
    results: Vec<Mutex<Option<R>>>,
    /// Rounds posted, plus one once the team is dismissed. The caller's
    /// release increment pairs with a helper's acquire load, publishing
    /// `task`, `dismissed` and everything the caller wrote before it.
    posted: AtomicUsize,
    /// Helper parts finished, over all rounds. A helper's release
    /// increment pairs with the caller's acquire load, publishing its
    /// `results` slot, `helper_panicked` and everything its part wrote.
    finished: AtomicUsize,
    /// Written only by the caller; helpers read it after `posted`.
    dismissed: AtomicBool,
    /// Written by helpers before `finished`; the caller reads it after.
    helper_panicked: AtomicBool,
}

impl<T: Copy, R> Team<'_, T, R> {
    /// Runs one round of `work`, hands its part results to `fold` in part
    /// order, and returns the number of parts: one per team thread, or 1
    /// once the team has no helpers left (none started, or
    /// [`Team::dismiss`]ed).
    pub fn run(&self, task: T, mut fold: impl FnMut(R)) -> usize {
        if self.helpers == 0 || self.dismissed.load(Ordering::Relaxed) {
            fold((self.work)(task, 0, 1));
            return 1;
        }
        let parts = self.helpers + 1;
        *self.task.lock().expect("par team poisoned") = Some(task);
        let round = self.posted.fetch_add(1, Ordering::Release) + 1;
        let own = (self.work)(task, 0, parts);
        spin_until(|| self.finished.load(Ordering::Acquire) == round * self.helpers);
        assert!(
            !self.helper_panicked.load(Ordering::Relaxed),
            "par::with_team: a helper panicked"
        );
        fold(own);
        for slot in &self.results {
            fold(
                slot.lock()
                    .expect("par team poisoned")
                    .take()
                    .expect("part result"),
            );
        }
        parts
    }

    /// Sends the helpers home: they stop spinning and exit, and every later
    /// round runs whole on the calling thread.
    pub fn dismiss(&self) {
        if !self.dismissed.swap(true, Ordering::Relaxed) {
            self.posted.fetch_add(1, Ordering::Release);
        }
    }

    /// A helper's loop: wait for a round, run part `part` of it, report.
    fn serve(&self, part: usize) {
        let mut seen = 0;
        loop {
            let mut posted = seen;
            spin_until(|| {
                posted = self.posted.load(Ordering::Acquire);
                posted != seen
            });
            seen = posted;
            if self.dismissed.load(Ordering::Relaxed) {
                return;
            }
            let task = self
                .task
                .lock()
                .expect("par team poisoned")
                .expect("posted");
            let run = || (self.work)(task, part, self.helpers + 1);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(r) => *self.results[part - 1].lock().expect("par team poisoned") = Some(r),
                Err(_) => self.helper_panicked.store(true, Ordering::Relaxed),
            }
            self.finished.fetch_add(1, Ordering::Release);
        }
    }
}

/// Runs `body` with a [`Team`] of `helpers` threads that live for this one
/// call and run `work(task, part, parts)` for every round `body` posts
/// through [`Team::run`]. With `helpers == 0` no thread starts and rounds
/// run inline as part 0 of 1.
///
/// This is for loops of many short dependent rounds, such as the NN-chain's
/// nearest-neighbour scans, where [`map_indexed`]'s thread spawn per call
/// costs more than the round. Folding the part results in part order
/// makes a round's outcome independent of the thread count whenever the
/// fold is, e.g. a lowest-index argmin over contiguous parts. Ask for at
/// most [`team_helpers`] helpers: each one spins on a core of its own
/// until dismissed.
pub fn with_team<T, R, W, B>(helpers: usize, work: W, body: impl FnOnce(&Team<'_, T, R>) -> B) -> B
where
    T: Copy + Send,
    R: Send,
    W: Fn(T, usize, usize) -> R + Sync,
{
    let team = Team {
        work: &work,
        helpers,
        task: Mutex::new(None),
        results: (0..helpers).map(|_| Mutex::new(None)).collect(),
        posted: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        dismissed: AtomicBool::new(false),
        helper_panicked: AtomicBool::new(false),
    };
    if helpers == 0 {
        return body(&team);
    }
    /// Dismisses the team when `body` returns or unwinds, so the scope can
    /// join its helpers.
    struct Dismiss<'a, 'w, T: Copy, R>(&'a Team<'w, T, R>);
    impl<T: Copy, R> Drop for Dismiss<'_, '_, T, R> {
        fn drop(&mut self) {
            self.0.dismiss();
        }
    }
    let handoff = icn_obs::current_handoff();
    std::thread::scope(|scope| {
        for part in 1..=helpers {
            let (team, handoff) = (&team, handoff.clone());
            scope.spawn(move || {
                let _adopt = handoff.as_ref().map(icn_obs::Handoff::adopt);
                team.serve(part);
            });
        }
        let _dismiss = Dismiss(&team);
        body(&team)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that set `ICN_THREADS`: the variable is
    /// process-global and the tests of one binary run concurrently.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
        let _guard = ENV_LOCK.lock().unwrap();
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
        assert_eq!(snap.spans["dispatch/work"].calls, 64);
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
    fn team_rounds_run_every_part_once_in_part_order() {
        // Each part returns (round, part): a part run twice, skipped or
        // folded out of order shows in the fold.
        let mut folded = Vec::new();
        let parts = with_team(
            2,
            |round: u64, part: usize, parts: usize| {
                assert!(part < parts && parts == 3);
                (round, part)
            },
            |team| {
                (0..100)
                    .map(|round| team.run(round, |r| folded.push(r)))
                    .collect::<Vec<usize>>()
            },
        );
        assert!(parts.iter().all(|&p| p == 3));
        let want: Vec<(u64, usize)> = (0..100).flat_map(|r| (0..3).map(move |p| (r, p))).collect();
        assert_eq!(folded, want);
    }

    #[test]
    fn dismissed_or_empty_teams_run_rounds_inline() {
        let caller = std::thread::current().id();
        let work = |round: u8, part: usize, parts: usize| {
            let on_caller = std::thread::current().id() == caller;
            (round, part, parts, on_caller)
        };
        let mut ran = Vec::new();
        assert_eq!(with_team(0, work, |team| team.run(0, |r| ran.push(r))), 1);
        let parts = with_team(1, work, |team| {
            let shared = team.run(1, |r| ran.push(r));
            team.dismiss();
            team.dismiss();
            (shared, team.run(2, |r| ran.push(r)))
        });
        assert_eq!(parts, (2, 1));
        assert_eq!(
            ran,
            vec![
                (0, 0, 1, true),
                (1, 0, 2, true),
                (1, 1, 2, false),
                (2, 0, 1, true)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "a helper panicked")]
    fn helper_panic_reaches_the_caller() {
        with_team(
            1,
            |_: (), part, _| assert_eq!(part, 0),
            |team| team.run((), drop),
        );
    }

    #[test]
    fn team_helpers_never_exceed_the_cores() {
        let _guard = ENV_LOCK.lock().unwrap();
        let hw = std::thread::available_parallelism().map_or(1, |v| v.get());
        std::env::set_var("ICN_THREADS", "1");
        let one = team_helpers();
        std::env::set_var("ICN_THREADS", "64");
        let many = team_helpers();
        std::env::remove_var("ICN_THREADS");
        assert_eq!(one, 0);
        assert_eq!(many, hw - 1);
    }

    #[test]
    fn thread_count_honors_env_override() {
        let _guard = ENV_LOCK.lock().unwrap();
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
