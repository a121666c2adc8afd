//! The assembled synthetic dataset.
//!
//! [`Dataset::generate`] runs the full synthetic measurement campaign and
//! bundles everything the study pipeline consumes: the service catalog, the
//! indoor antenna population with metadata, the indoor totals matrix `T`,
//! the outdoor population and its totals matrix, and the calendar. It also
//! offers CSV/JSON export so the "processed service consumption data" the
//! paper promises to release has an equivalent artefact here.

use crate::antennas::{generate_antennas, Antenna};
use crate::archetypes::AffinityTable;
use crate::calendar::StudyCalendar;
use crate::config::SynthConfig;
use crate::outdoor::{generate_outdoor, outdoor_totals_matrix, OutdoorAntenna, OutdoorConfig};
use crate::services::{catalog, Service};
use crate::traffic::totals_matrix;
use icn_stats::{Matrix, Rng};
use std::fmt::Write as _;

/// A complete synthetic measurement campaign.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Generator configuration used.
    pub config: SynthConfig,
    /// The 73-service catalog (column order of the matrices).
    pub services: Vec<Service>,
    /// Indoor antenna population (row order of `indoor_totals`).
    pub antennas: Vec<Antenna>,
    /// Indoor antenna × service two-month totals (MB) — the paper's `T`.
    pub indoor_totals: Matrix,
    /// Outdoor antenna population (row order of `outdoor_totals`).
    pub outdoor: Vec<OutdoorAntenna>,
    /// Outdoor antenna × service totals (MB).
    pub outdoor_totals: Matrix,
    /// The recording period.
    pub calendar: StudyCalendar,
    /// Root RNG used; fork it for hourly-series synthesis so that results
    /// stay consistent with the totals.
    root: Rng,
}

impl Dataset {
    /// Runs the campaign for `config`. Deterministic in `config.seed`.
    pub fn generate(config: SynthConfig) -> Dataset {
        let _span = icn_obs::Span::enter("generate");
        let root = Rng::seed_from(config.seed);
        let services = catalog();
        let mut pop_rng = root.fork(0xB0B_u64);
        let antennas = generate_antennas(config.scale, &mut pop_rng);
        let affinity = AffinityTable::new(&services);
        let indoor_totals = totals_matrix(&antennas, &services, &affinity, &root);
        let out_cfg = OutdoorConfig {
            per_indoor: config.outdoor_per_indoor,
            ..OutdoorConfig::default()
        };
        let outdoor = generate_outdoor(&antennas, &out_cfg, &root);
        let outdoor_totals =
            outdoor_totals_matrix(&outdoor, &antennas, &services, &affinity, &root);
        let obs = icn_obs::global();
        if obs.is_enabled() {
            obs.add_counter("synth.antennas", antennas.len() as u64);
            obs.add_counter("synth.outdoor_antennas", outdoor.len() as u64);
            obs.add_counter("synth.services", services.len() as u64);
        }
        Dataset {
            config,
            services,
            antennas,
            indoor_totals,
            outdoor,
            outdoor_totals,
            calendar: StudyCalendar::paper_period(),
            root,
        }
    }

    /// The root RNG (fork it; never advance it in place).
    pub fn root_rng(&self) -> &Rng {
        &self.root
    }

    /// Number of indoor antennas (`N`).
    pub fn num_antennas(&self) -> usize {
        self.antennas.len()
    }

    /// Number of services (`M`).
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// Ground-truth archetype ids (paper cluster numbering), for
    /// validation only.
    pub fn planted_labels(&self) -> Vec<usize> {
        self.antennas.iter().map(|a| a.archetype.id()).collect()
    }

    /// Exports the indoor totals as CSV (`antenna_id,site,env,city` then
    /// one column per service).
    pub fn indoor_totals_csv(&self) -> String {
        let mut s = String::new();
        s.push_str("antenna_id,site_name,environment,city");
        for svc in &self.services {
            let _ = write!(s, ",{}", svc.name.replace(',', ";"));
        }
        s.push('\n');
        for (i, a) in self.antennas.iter().enumerate() {
            let _ = write!(
                s,
                "{},{},{},{}",
                a.id,
                a.site_name,
                a.environment.label(),
                a.city.label()
            );
            for j in 0..self.services.len() {
                let _ = write!(s, ",{:.3}", self.indoor_totals.get(i, j));
            }
            s.push('\n');
        }
        s
    }

    /// Exports antenna metadata as JSON lines (one object per antenna).
    pub fn antennas_jsonl(&self) -> String {
        use icn_obs::Json;
        let mut s = String::new();
        for a in &self.antennas {
            let obj = Json::obj(vec![
                ("id", Json::num(a.id as f64)),
                ("site_id", Json::num(a.site_id as f64)),
                ("site_name", Json::str(&a.site_name)),
                ("environment", Json::str(a.environment.label())),
                ("city", Json::str(a.city.label())),
                ("lat", Json::num(a.coord.lat)),
                ("lon", Json::num(a.coord.lon)),
                ("rat", Json::str(a.rat.label())),
            ]);
            s.push_str(&obj.to_compact());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::generate(SynthConfig::small())
    }

    #[test]
    fn generate_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.indoor_totals, b.indoor_totals);
        assert_eq!(a.outdoor_totals, b.outdoor_totals);
        assert_eq!(a.planted_labels(), b.planted_labels());
    }

    #[test]
    fn different_seed_changes_data() {
        let a = small();
        let b = Dataset::generate(SynthConfig::small().with_seed(1));
        assert_ne!(a.indoor_totals, b.indoor_totals);
    }

    #[test]
    fn dimensions_consistent() {
        let d = small();
        assert_eq!(d.indoor_totals.rows(), d.num_antennas());
        assert_eq!(d.indoor_totals.cols(), d.num_services());
        assert_eq!(d.outdoor_totals.rows(), d.outdoor.len());
        assert_eq!(d.num_services(), 73);
    }

    #[test]
    fn planted_labels_in_range() {
        let d = small();
        assert!(d.planted_labels().iter().all(|&l| l < 9));
        // All nine archetypes appear even in the small config.
        let mut seen = [false; 9];
        for l in d.planted_labels() {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing archetypes: {seen:?}");
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let d = small();
        let csv = d.indoor_totals_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), d.num_antennas() + 1);
        assert!(lines[0].starts_with("antenna_id,site_name,environment,city,Spotify"));
        // Each data line has 4 + M fields.
        let fields = lines[1].split(',').count();
        assert_eq!(fields, 4 + d.num_services());
    }

    #[test]
    fn jsonl_parses_back() {
        let d = small();
        let jsonl = d.antennas_jsonl();
        let first = jsonl.lines().next().unwrap();
        let v = icn_obs::Json::parse(first).unwrap();
        assert_eq!(v.get("id").and_then(icn_obs::Json::as_f64), Some(0.0));
        assert!(
            v.get("site_name")
                .and_then(icn_obs::Json::as_str)
                .unwrap()
                .len()
                > 3
        );
    }
}
