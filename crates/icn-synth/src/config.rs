//! Generator configuration.

/// Configuration of the synthetic measurement campaign.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Master seed; everything downstream is derived deterministically.
    pub seed: u64,
    /// Multiplier on the Table 1 per-environment antenna counts
    /// (1.0 ⇒ the paper's 4,762 antennas; tests use ≤ 0.1).
    pub scale: f64,
    /// Number of outdoor macro antennas generated per indoor antenna
    /// (the paper analyses ~20k outdoor near 4,762 indoor ⇒ ≈ 4).
    pub outdoor_per_indoor: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0x1C4_2023,
            scale: 1.0,
            outdoor_per_indoor: 4,
        }
    }
}

impl SynthConfig {
    /// Full paper-scale configuration.
    pub fn paper() -> Self {
        SynthConfig::default()
    }

    /// A small configuration for fast tests (~380 antennas).
    pub fn small() -> Self {
        SynthConfig {
            seed: 0x1C4_2023,
            scale: 0.08,
            outdoor_per_indoor: 2,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "SynthConfig: non-positive scale");
        self.scale = scale;
        self
    }

    /// A lower bound on the bytes [`crate::Dataset::generate`] holds for
    /// this configuration: the indoor and outdoor totals matrices alone,
    /// `antennas × (1 + outdoor_per_indoor) × services × 8`. Computed
    /// without generating anything (saturating), so a caller can refuse a
    /// configuration that cannot fit before the generator runs.
    pub fn min_footprint_bytes(&self) -> u64 {
        let indoor = crate::antennas::antenna_count(self.scale) as u64;
        let rows = indoor.saturating_mul(1 + self.outdoor_per_indoor as u64);
        let services = crate::services::catalog().len() as u64;
        rows.saturating_mul(services).saturating_mul(8)
    }

    /// Refuses, before anything is generated, a configuration whose
    /// totals matrices alone ([`SynthConfig::min_footprint_bytes`]) exceed
    /// `budget_mb` MiB, or physical memory (`MemTotal`) when no budget is
    /// given. The error names both numbers. Where physical memory cannot
    /// be read, an unbudgeted configuration passes.
    pub fn check_fits(&self, budget_mb: Option<u64>) -> Result<(), String> {
        let need = self.min_footprint_bytes();
        let limit = match budget_mb {
            Some(mb) => Some((
                "memory budget",
                mb.saturating_mul(1024 * 1024),
                format!("{mb} MiB"),
            )),
            None => icn_obs::mem_total_bytes()
                .map(|b| ("physical memory", b, format!("{b} bytes of MemTotal"))),
        };
        match limit {
            Some((what, bytes, limit)) if need > bytes => Err(format!(
                "{what} BREACHED before generation: the scale-{} totals matrices \
                 alone need {need} bytes > {limit}",
                self.scale
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale() {
        let c = SynthConfig::paper();
        assert_eq!(c.scale, 1.0);
        assert_eq!(c.outdoor_per_indoor, 4);
    }

    #[test]
    fn builders_apply() {
        let c = SynthConfig::small().with_seed(9).with_scale(0.2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.scale, 0.2);
    }

    #[test]
    fn footprint_bound_is_the_totals_matrices() {
        let c = SynthConfig::paper();
        assert_eq!(c.min_footprint_bytes(), 4762 * 5 * 73 * 8);
        let d = crate::Dataset::generate(SynthConfig::small().with_scale(0.05));
        let held = (d.indoor_totals.as_slice().len() + d.outdoor_totals.as_slice().len()) * 8;
        assert_eq!(d.config.min_footprint_bytes(), held as u64);
        assert_eq!(c.with_scale(1e300).min_footprint_bytes(), u64::MAX);
    }

    #[test]
    fn unfit_configuration_is_refused_naming_both_numbers() {
        let huge = SynthConfig::paper().with_scale(1e6);
        let need = huge.min_footprint_bytes();
        let err = huge.check_fits(Some(1)).unwrap_err();
        assert!(err.contains(&format!("{need} bytes")), "{err}");
        assert!(err.contains("> 1 MiB"), "{err}");
        assert!(err.starts_with("memory budget BREACHED before generation"));
        let small = SynthConfig::paper().with_scale(0.05);
        assert_eq!(small.check_fits(Some(1)), Ok(()));
        assert_eq!(small.check_fits(None), Ok(()));
        if let Some(total) = icn_obs::mem_total_bytes() {
            let err = SynthConfig::paper().with_scale(1e300).check_fits(None);
            let err = err.unwrap_err();
            assert!(err.contains(&format!("{} bytes > {total} bytes of MemTotal", u64::MAX)));
            assert!(err.starts_with("physical memory BREACHED before generation"));
        }
    }

    #[test]
    #[should_panic(expected = "non-positive scale")]
    fn zero_scale_panics() {
        let _ = SynthConfig::small().with_scale(0.0);
    }
}
