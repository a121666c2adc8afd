//! Golden-snapshot gate for the ingest subsystem.
//!
//! `tests/golden/ingest_scale005.json` pins, at the reference scale, the
//! mid-stream checkpoint hash, the canonical hash of the final ingest
//! result, and every stage hash of a study built **from the streamed
//! matrix** (after a checkpoint kill-and-resume in the middle of the
//! stream). Any change to record generation, validation order, the
//! accumulator fold, or the checkpoint format moves at least one hash.
//! If the change is intentional, re-bless with
//! `cargo run --bin icn -- testkit --bless` and commit the JSON.

use icn_repro::icn_testkit::golden::GOLDEN_SCALE;
use icn_repro::icn_testkit::{compare_golden, default_golden_dir, goldens, write_golden};

mod common;

#[test]
fn blessed_ingest_golden_matches_current_subsystem() {
    let golden = goldens(&default_golden_dir(), GOLDEN_SCALE)
        .into_iter()
        .find(|g| g.label == "ingest")
        .expect("ingest golden listed");
    let snap = golden.snapshot();
    let path = &golden.path;
    if let Err(drift) = compare_golden(path, &snap) {
        panic!(
            "ingest output drifted from {} (re-bless with \
             `cargo run --bin icn -- testkit --bless` if intentional):\n  {}",
            path.display(),
            drift.join("\n  ")
        );
    }

    // A freshly blessed copy of the same snapshot always passes its own
    // check, byte-identically across re-blessings.
    let dir = std::env::temp_dir().join(format!("icn-ingest-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.join("ingest_scale005.json");
    write_golden(&tmp, &snap).unwrap();
    let first = std::fs::read(&tmp).unwrap();
    write_golden(&tmp, &snap).unwrap();
    assert_eq!(first, std::fs::read(&tmp).unwrap());
    assert!(compare_golden(&tmp, &snap).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
