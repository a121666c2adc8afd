//! Guards the zero-overhead-when-disabled contract of icn-obs: attaching
//! the registry must not perturb any numeric output (the pipeline stays
//! bit-for-bit identical), and the disabled instrumentation path must not
//! add measurable wall time.
//!
//! This binary also installs the counting allocator, so the bit-identity
//! checks below now hold *with allocation tracking live*: enabling the
//! registry turns counting on, and the metered run must still match the
//! unmetered run bit for bit — attribution observes the pipeline, it
//! never steers it.

use icn_repro::icn_obs::{self, mem};
use icn_repro::prelude::*;

mod common;
use std::sync::Mutex;
use std::time::Instant;

#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

static LOCK: Mutex<()> = Mutex::new(());

fn study(seed: u64) -> (Dataset, IcnStudy) {
    let ds = common::dataset_seeded(seed);
    let st = common::study_for(&ds);
    (ds, st)
}

/// Bit pattern of an `f64` slice, so `-0.0` vs `0.0` or differing NaN
/// payloads cannot masquerade as equality.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn metered_run_is_bit_identical_to_unmetered_run() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();

    obs.reset();
    obs.disable();
    let (ds_off, off) = study(2023);

    obs.reset();
    obs.enable();
    let (ds_on, on) = study(2023);
    obs.disable();
    obs.reset();

    assert_eq!(
        bits(ds_off.indoor_totals.as_slice()),
        bits(ds_on.indoor_totals.as_slice())
    );
    assert_eq!(off.live_rows, on.live_rows);
    assert_eq!(bits(off.rsca.as_slice()), bits(on.rsca.as_slice()));
    assert_eq!(off.labels, on.labels);
    assert_eq!(off.labels_coarse, on.labels_coarse);
    assert_eq!(off.consolidation, on.consolidation);
    for (a, b) in off.profiles.iter().zip(&on.profiles) {
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.size, b.size);
        assert_eq!(bits(&a.mean_rsca), bits(&b.mean_rsca));
    }
    assert_eq!(
        off.surrogate_accuracy.to_bits(),
        on.surrogate_accuracy.to_bits()
    );
    assert_eq!(off.outdoor.predicted, on.outdoor.predicted);
}

#[test]
fn disabled_registry_records_nothing() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.reset();
    obs.disable();
    let _ = study(5);
    let snap = obs.snapshot();
    assert!(
        snap.counters.is_empty(),
        "counters leaked: {:?}",
        snap.counters
    );
    assert!(
        snap.spans.is_empty(),
        "spans leaked: {:?}",
        snap.spans.keys()
    );
    assert!(
        snap.span_tree.is_empty(),
        "span tree leaked {} spans",
        snap.span_tree.len()
    );
    assert!(
        snap.histograms.is_empty(),
        "histograms leaked: {:?}",
        snap.histograms.keys()
    );
    // The span handoff must also be inert while disabled, or worker
    // threads would pay for clone+adopt on every parallel section.
    assert!(
        icn_obs::current_handoff().is_none(),
        "current_handoff must be None while disabled"
    );
}

/// The allocator side of the zero-overhead contract: while the registry
/// is disabled the counting window is frozen — the whole pipeline can
/// run without moving a single counter, because the disabled path is one
/// relaxed load on a static flag.
#[test]
fn allocator_window_is_frozen_while_disabled() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.disable();
    obs.reset();
    assert!(!mem::counting_enabled());

    let before = mem::stats();
    let (_ds, st) = study(7);
    std::hint::black_box(&st);
    let after = mem::stats();
    assert_eq!(before.allocs, 0, "window not clean after reset");
    assert_eq!(after.allocs, 0, "allocs counted while disabled");
    assert_eq!(after.total_alloc_bytes, 0, "bytes counted while disabled");
    assert_eq!(after.peak_bytes, 0, "peak moved while disabled");
    assert_eq!(after.live_bytes, 0, "live balance moved while disabled");

    // Enabling the registry opens the window: the same study now counts.
    obs.enable();
    let (_ds, st) = study(7);
    std::hint::black_box(&st);
    let counted = mem::stats();
    obs.disable();
    obs.reset();
    assert!(counted.allocs > 0, "enabled window saw no allocations");
    assert!(counted.peak_bytes > 0, "enabled window saw no peak");
}

/// Timing smoke check — inherently noisy, so not part of the default
/// suite. Run with `cargo test -- --ignored` on a quiet machine.
#[test]
#[ignore = "timing-sensitive; run explicitly on a quiet machine"]
fn disabled_path_adds_no_measurable_overhead() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.disable();

    let time = |reps: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(study(11));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let baseline = time(3);
    // The registry is already disabled — this measures the same code, so
    // any difference beyond 20% is noise or a real disabled-path cost.
    let again = time(3);
    let ratio = again / baseline;
    assert!(
        (0.8..1.25).contains(&ratio),
        "disabled-path runs diverged: {baseline:.3}s vs {again:.3}s"
    );
}
