//! Generator configuration.

use icn_obs::Json;

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

    /// JSON view of the configuration (seeds must stay below 2^53 to
    /// round-trip exactly through the number representation).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::num(self.seed as f64)),
            ("scale", Json::num(self.scale)),
            (
                "outdoor_per_indoor",
                Json::num(self.outdoor_per_indoor as f64),
            ),
        ])
    }

    /// Parses a configuration previously produced by [`to_json`].
    ///
    /// [`to_json`]: SynthConfig::to_json
    pub fn from_json(v: &Json) -> Result<SynthConfig, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("SynthConfig: missing numeric field `{name}`"))
        };
        Ok(SynthConfig {
            seed: field("seed")? as u64,
            scale: field("scale")?,
            outdoor_per_indoor: field("outdoor_per_indoor")? as usize,
        })
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
    #[should_panic(expected = "non-positive scale")]
    fn zero_scale_panics() {
        let _ = SynthConfig::small().with_scale(0.0);
    }

    #[test]
    fn json_round_trip() {
        let c = SynthConfig::small();
        let text = c.to_json().to_compact();
        let back = SynthConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.seed, c.seed);
        assert_eq!(back.scale, c.scale);
        assert_eq!(back.outdoor_per_indoor, c.outdoor_per_indoor);
    }

    #[test]
    fn from_json_reports_missing_field() {
        let v = Json::parse(r#"{"seed": 1}"#).unwrap();
        let err = SynthConfig::from_json(&v).unwrap_err();
        assert!(err.contains("scale"), "err: {err}");
    }
}
