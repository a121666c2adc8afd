//! Generator-level properties under the seeded `icn_stats::check` harness:
//! the synthetic campaign must be a pure function of its config, and its
//! outputs must stay physically sensible at every scale and seed.

use icn_stats::check::{self, cases};
use icn_synth::{Dataset, SynthConfig};

fn config(rng: &mut icn_stats::Rng) -> SynthConfig {
    let seed = rng.uniform(0.0, 1e6) as u64;
    let scale = rng.uniform(0.01, 0.05);
    check::record(format!("seed {seed}, scale {scale:.4}"));
    SynthConfig::small().with_seed(seed).with_scale(scale)
}

#[test]
fn generation_is_deterministic_in_its_config() {
    cases(6, |_, rng| {
        let cfg = config(rng);
        let a = Dataset::generate(cfg);
        let b = Dataset::generate(cfg);
        assert_eq!(
            a.indoor_totals.as_slice(),
            b.indoor_totals.as_slice(),
            "indoor totals drifted between identical configs"
        );
        assert_eq!(a.outdoor_totals.as_slice(), b.outdoor_totals.as_slice());
        assert_eq!(a.planted_labels(), b.planted_labels());
    });
}

#[test]
fn totals_are_finite_and_non_negative_at_all_scales_and_seeds() {
    cases(6, |_, rng| {
        let ds = Dataset::generate(config(rng));
        for (name, m) in [
            ("indoor", &ds.indoor_totals),
            ("outdoor", &ds.outdoor_totals),
        ] {
            assert!(
                m.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0),
                "{name} totals contain negative or non-finite traffic"
            );
            assert!(m.total() > 0.0, "{name} campaign carries no traffic");
        }
        // Every antenna has a planted archetype within range.
        let n_arch = ds
            .planted_labels()
            .iter()
            .copied()
            .max()
            .expect("no antennas")
            + 1;
        assert_eq!(ds.planted_labels().len(), ds.num_antennas());
        assert!(n_arch <= 9, "more planted archetypes than the paper's 9");
    });
}

#[test]
fn different_seeds_synthesise_different_campaigns() {
    cases(6, |_, rng| {
        let cfg = config(rng);
        let other = cfg.with_seed(cfg.seed.wrapping_add(1));
        let a = Dataset::generate(cfg);
        let b = Dataset::generate(other);
        assert_ne!(
            a.indoor_totals.as_slice(),
            b.indoor_totals.as_slice(),
            "adjacent seeds must not collide"
        );
    });
}

#[test]
fn generation_is_bit_identical_at_any_thread_count() {
    // `ICN_THREADS` is process-global: this is the only test in this
    // binary that sets it. Restored even on unwind.
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("ICN_THREADS", v),
                None => std::env::remove_var("ICN_THREADS"),
            }
        }
    }
    let _restore = Restore(std::env::var("ICN_THREADS").ok());
    let bits = |m: &icn_stats::Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let totals_at = |threads: &str| {
        std::env::set_var("ICN_THREADS", threads);
        let ds = Dataset::generate(SynthConfig::small().with_seed(17).with_scale(0.1));
        (
            bits(&ds.indoor_totals),
            bits(&ds.outdoor_totals),
            ds.num_antennas(),
        )
    };
    let reference = totals_at("1");
    assert!(reference.2 > 3 * 64, "several row blocks per matrix");
    for threads in ["2", "3"] {
        assert!(
            totals_at(threads) == reference,
            "totals drifted at ICN_THREADS={threads}"
        );
    }
}
