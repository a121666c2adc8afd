//! Allocation accounting: a counting [`GlobalAlloc`] wrapper, the
//! process-wide byte window behind the `icn-obs/v5` `memory` report
//! section, and the per-span self figures on the report's span rows.
//!
//! Harness binaries install [`CountingAlloc`] as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();
//! ```
//!
//! Every allocation then updates a small set of process-global relaxed
//! atomics (net live bytes, window peak, cumulative bytes/counts) plus
//! two plain `Cell` thread-locals that attribute allocation churn to the
//! span open on the allocating thread (see [`crate::Span`]). The
//! counting is gated on one static [`AtomicBool`]: while the registry is
//! disabled the allocator forwards straight to [`System`] after a single
//! relaxed load — the zero-overhead contract `tests/overhead_guard.rs`
//! pins. Library crates never talk to this module directly; the flag is
//! flipped by [`crate::Registry::enable`]/`disable` on the process-global
//! registry only, so unit tests driving private registries cannot
//! perturb the window.
//!
//! **Windowed semantics.** Resetting the window zeroes every counter, so
//! `live_bytes` is the *net* allocation balance since the last
//! [`crate::Registry::reset`] — memory allocated before the window and
//! freed inside it legitimately drives the balance negative, which is
//! why it is signed. `peak_bytes` is the high-water mark of that net
//! balance, the quantity the `icn obs diff` peak gate checks and
//! `--mem-budget-mb` enforces.
//!
//! **Attribution is threads-advisory.** Bytes are attributed to the span
//! stack of the thread that allocated them. Worker spans adopted across
//! threads (see [`crate::Handoff`]) carry their own attribution under
//! the dispatching stage's path, but allocations made by a worker
//! *outside* any span are visible only in the global totals. Canonical
//! per-span numbers are recorded at `ICN_THREADS=1`; the global peak is
//! exact at every thread count.
//!
//! The allocator hooks touch only `Cell<u64>` thread-locals (const-init,
//! no destructor, accessed with `try_with`) and relaxed atomics — never
//! a lock, a `RefCell` or an allocation — so counting is reentrancy- and
//! teardown-safe by construction.

#![allow(unsafe_code)] // the GlobalAlloc impl; everything else is safe

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static MEM_ENABLED: AtomicBool = AtomicBool::new(false);

/// Net live bytes in the current window (signed: frees of pre-window
/// allocations can outweigh in-window allocations).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE`] within the window (never negative).
static PEAK: AtomicI64 = AtomicI64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread cumulative attribution counters. Plain `Cell`s with
    // const initializers: no lazy init, no Drop registration, so the
    // allocator can bump them from inside any allocation without
    // re-entering itself. Never reset — span attribution works on
    // deltas, so only monotonicity matters.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Flips the process-wide counting flag. Crate-internal: only
/// [`crate::Registry::enable`]/`disable` on the global registry call
/// this, so the window tracks exactly the metered portion of a run.
pub(crate) fn set_enabled(on: bool) {
    MEM_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
pub fn counting_enabled() -> bool {
    MEM_ENABLED.load(Ordering::Relaxed)
}

/// Zeroes the window counters (live, peak, totals). Thread-local
/// attribution counters are left alone — they are only ever consumed as
/// deltas between span enter and drop.
pub(crate) fn reset_window() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_FREES.store(0, Ordering::Relaxed);
}

/// A snapshot of the window counters — see [`stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Net bytes allocated minus freed since the window reset (signed —
    /// see the module docs).
    pub live_bytes: i64,
    /// High-water mark of [`MemStats::live_bytes`] within the window.
    pub peak_bytes: u64,
    /// Cumulative bytes passed to `alloc`/`realloc` in the window
    /// (allocation churn, not net footprint).
    pub total_alloc_bytes: u64,
    /// Number of allocations in the window.
    pub allocs: u64,
    /// Number of deallocations in the window.
    pub frees: u64,
}

/// Reads the current window counters. All-zero (in particular
/// `allocs == 0`) when no [`CountingAlloc`] is installed in the running
/// binary or counting never ran — which is how report building decides
/// whether a `memory` section is meaningful.
pub fn stats() -> MemStats {
    MemStats {
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        total_alloc_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        frees: TOTAL_FREES.load(Ordering::Relaxed),
    }
}

/// The calling thread's cumulative attribution counters:
/// `(bytes, allocation count)`. Monotonic; consumed as enter/drop deltas
/// by [`crate::Span`].
pub(crate) fn thread_totals() -> (u64, u64) {
    let bytes = THREAD_BYTES.try_with(Cell::get).unwrap_or(0);
    let allocs = THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0);
    (bytes, allocs)
}

/// Current window peak — cheaper than [`stats`] for the per-span peak
/// growth snapshot.
pub(crate) fn window_peak() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

fn bump_peak(live: i64) {
    let mut seen = PEAK.load(Ordering::Relaxed);
    while live > seen {
        match PEAK.compare_exchange_weak(seen, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => seen = now,
        }
    }
}

/// Counting hook for one allocation of `size` bytes. Kept separate from
/// the `GlobalAlloc` impl (which only adds the enablement branch) so the
/// arithmetic is unit-testable without installing an allocator.
pub(crate) fn on_alloc(size: u64) {
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    bump_peak(live);
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// Counting hook for one deallocation of `size` bytes.
pub(crate) fn on_free(size: u64) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
}

/// Counting hook for a reallocation: accounted as a free of the old
/// block plus an allocation of the new one, so live bytes track the net
/// change while churn counts the full new size.
pub(crate) fn on_realloc(old_size: u64, new_size: u64) {
    let delta = new_size as i64 - old_size as i64;
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    bump_peak(live);
    TOTAL_BYTES.fetch_add(new_size, Ordering::Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(new_size)));
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// A counting allocator over [`System`]. Install as the binary's
/// `#[global_allocator]`; while the global registry is disabled every
/// method is a single relaxed load plus the `System` call.
pub struct CountingAlloc {
    _private: (),
}

impl CountingAlloc {
    /// The wrapper over [`System`] (const, so it can initialize a
    /// `static`).
    pub const fn system() -> CountingAlloc {
        CountingAlloc { _private: () }
    }
}

// SAFETY: pure delegation to `System`; the counting side effects touch
// only atomics and const-init `Cell` thread-locals, never allocate and
// never unwind, so every `GlobalAlloc` contract obligation is `System`'s
// own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if MEM_ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            on_realloc(layout.size() as u64, new_size as u64);
        }
        p
    }
}

/// The process's peak resident set (`VmHWM` from `/proc/self/status`) in
/// bytes. `None` off Linux or when the pseudo-file is unreadable —
/// report building treats it as optional context next to the allocator
/// window peak (which only sees heap traffic inside the window).
pub(crate) fn vm_hwm_bytes() -> Option<u64> {
    proc_kb("/proc/self/status", "VmHWM")
}

/// The machine's physical memory (`MemTotal` from `/proc/meminfo`) in
/// bytes. `None` off Linux or when the pseudo-file is unreadable — `icn`
/// then skips the check that refuses, before generation, a campaign too
/// large for the machine.
pub fn mem_total_bytes() -> Option<u64> {
    proc_kb("/proc/meminfo", "MemTotal")
}

/// The `<key>: <n> kB` line of a `/proc` pseudo-file, in bytes.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    kb.checked_mul(1024)
}

/// Sets a `*_bytes` gauge on the global registry — the one helper behind
/// every hand-maintained footprint gauge (`cluster.condensed_bytes`,
/// `cluster.budget_bytes`, ...), so they all share the unit convention
/// the `icn obs diff` bytes gate keys on.
///
/// Debug builds assert the `_bytes` suffix; release builds trust the
/// caller (the gauge would merely escape the bytes gate).
pub fn gauge_bytes(name: &str, bytes: usize) {
    debug_assert!(
        name.ends_with("_bytes"),
        "gauge_bytes wants a name ending in _bytes, got {name:?}"
    );
    crate::global().set_gauge(name, bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests mutate the process-global window counters directly via
    // the counting hooks (no allocator is installed in the unit-test
    // binary), so they serialize on the crate-wide mem lock — shared with
    // the span tests that also drive the hooks.
    use crate::MEM_TEST_LOCK as LOCK;

    #[test]
    fn window_tracks_live_peak_and_totals() {
        let _guard = LOCK.lock().unwrap();
        reset_window();
        on_alloc(1000);
        on_alloc(500);
        on_free(800);
        on_alloc(100);
        let s = stats();
        assert_eq!(s.live_bytes, 800);
        assert_eq!(s.peak_bytes, 1500);
        assert_eq!(s.total_alloc_bytes, 1600);
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 1);
        reset_window();
        assert_eq!(stats(), MemStats::default());
    }

    #[test]
    fn pre_window_frees_drive_live_negative_but_peak_stays_unsigned() {
        let _guard = LOCK.lock().unwrap();
        reset_window();
        on_free(4096); // allocated before the window opened
        let s = stats();
        assert_eq!(s.live_bytes, -4096);
        assert_eq!(s.peak_bytes, 0);
        on_alloc(1024);
        // Net balance is still negative: peak never moved.
        assert_eq!(stats().live_bytes, -3072);
        assert_eq!(stats().peak_bytes, 0);
        reset_window();
    }

    #[test]
    fn realloc_counts_net_live_and_full_churn() {
        let _guard = LOCK.lock().unwrap();
        reset_window();
        on_alloc(100);
        on_realloc(100, 300);
        let s = stats();
        assert_eq!(s.live_bytes, 300);
        assert_eq!(s.peak_bytes, 300);
        assert_eq!(s.total_alloc_bytes, 400);
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        reset_window();
    }

    #[test]
    fn thread_totals_are_monotonic_and_survive_window_resets() {
        let _guard = LOCK.lock().unwrap();
        reset_window();
        let (b0, a0) = thread_totals();
        on_alloc(64);
        on_alloc(64);
        reset_window(); // must not clear thread attribution
        on_alloc(64);
        let (b1, a1) = thread_totals();
        assert_eq!(b1 - b0, 192);
        assert_eq!(a1 - a0, 3);
    }

    #[test]
    fn vm_hwm_and_mem_total_parse_on_linux() {
        if cfg!(target_os = "linux") {
            let hwm = vm_hwm_bytes().expect("VmHWM readable on Linux");
            assert!(hwm > 0, "VmHWM must be positive, got {hwm}");
            let total = mem_total_bytes().expect("MemTotal readable on Linux");
            assert!(total > hwm, "MemTotal {total} not above VmHWM {hwm}");
        }
    }
}
