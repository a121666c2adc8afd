//! Antenna and site population.
//!
//! Generates the indoor antenna population of the study: 4,762 antennas (or
//! a scaled-down population for tests) spread over 1,000+ sites, each with
//! an environment type (Table 1 counts), a city, a site name that embeds the
//! environment keyword (so the name-mining step of Section 5.2.1 can
//! re-derive the label), and a latent [`Archetype`] drawn from
//! environment-conditional mixtures calibrated to the paper's reported
//! cluster ↔ environment flows (Figures 6–8 and the prose of Section 5.2.2).

use crate::archetypes::Archetype;
use crate::environments::{City, Environment};
use crate::geo::{site_coord, Coord, RadioTech};
use icn_stats::Rng;

/// One indoor antenna with its metadata and planted ground truth.
#[derive(Clone, Debug)]
pub struct Antenna {
    /// Stable antenna id (row in the traffic matrix).
    pub id: usize,
    /// Site id (several antennas share one site).
    pub site_id: usize,
    /// Site name embedding the environment keyword, e.g.
    /// `"PARIS-METRO-0042-A3"`.
    pub site_name: String,
    /// Indoor environment type (planted; also re-derivable from the name).
    pub environment: Environment,
    /// City.
    pub(crate) city: City,
    /// Latent usage archetype — ground truth for validation only; the
    /// clustering pipeline never reads this.
    pub archetype: Archetype,
    /// Site coordinate (city centre + urban scatter).
    pub(crate) coord: Coord,
    /// Radio access technology (4G for the vast majority; Section 3).
    pub rat: RadioTech,
}

impl Antenna {
    /// True if the antenna is in Paris or its suburbs.
    pub fn is_paris(&self) -> bool {
        self.city.is_paris()
    }
}

/// Environment-conditional sampling of city and archetype, calibrated to
/// Section 5.2.2:
///
/// * metro: Paris antennas → archetypes 0/4; provincial metros → 7.
/// * trains: Paris-heavy → 4 (some 0); provincial stations → mostly 1/7.
/// * stadiums: >75 % of clusters 6/8 are stadiums; 6 non-Paris, 8 ~60 %
///   Paris; ~35 % of cluster 5 is stadiums.
/// * workspaces: >70 % of cluster 3; industrial facilities mostly → 5.
/// * expo centers: >50 % in cluster 3, the rest mostly 5.
/// * commercial: split ~50 % cluster 2 (incl. all MNO shops), ~30 %
///   cluster 1, ~5 % cluster 5.
/// * airports & tunnels: almost all cluster 1.
/// * hotels/public: mostly cluster 2, some 1; hospitals: almost all 2.
fn sample_city_and_archetype(env: Environment, rng: &mut Rng) -> (City, Archetype) {
    use Archetype::*;
    match env {
        Environment::Metro => {
            // ~70 % of French metro antennas are in the capital's network.
            if rng.chance(0.70) {
                // Paris: split between archetypes 0 (metro) and 4 (RER-ish).
                let a = if rng.chance(0.72) {
                    ParisMetro
                } else {
                    ParisRail
                };
                (City::Paris, a)
            } else {
                let city = City::PROVINCIAL_METRO[rng.index(4)];
                (city, ProvincialMetro)
            }
        }
        Environment::TrainStation => {
            if rng.chance(0.60) {
                // Parisian terminals and RER hubs.
                let a = if rng.chance(0.85) {
                    ParisRail
                } else {
                    ParisMetro
                };
                (City::Paris, a)
            } else {
                // Provincial stations: commuter-ish but some general use.
                let city = if rng.chance(0.4) {
                    City::PROVINCIAL_METRO[rng.index(4)]
                } else {
                    City::Other
                };
                let a = match rng.categorical(&[0.55, 0.3, 0.15]) {
                    0 => ParisRail, // same rail profile outside Paris
                    1 => GeneralUse,
                    _ => QuietVenue,
                };
                (city, a)
            }
        }
        Environment::Airport => {
            let city = if rng.chance(0.55) {
                City::Paris
            } else {
                City::Other
            };
            let a = if rng.chance(0.92) {
                GeneralUse
            } else {
                QuietVenue
            };
            (city, a)
        }
        Environment::Workspace => {
            // ~10 % of workspace antennas are industrial facilities that
            // land in the quiet cluster 5 (Section 5.2.2).
            let city = if rng.chance(0.65) {
                City::Paris
            } else {
                City::Other
            };
            let a = match rng.categorical(&[0.78, 0.10, 0.08, 0.04]) {
                0 => Workspace,
                1 => QuietVenue, // industrial facilities
                2 => GeneralUse,
                _ => RetailHospitality,
            };
            (city, a)
        }
        Environment::CommercialCenter => {
            let a = match rng.categorical(&[0.50, 0.33, 0.06, 0.06, 0.05]) {
                0 => RetailHospitality,
                1 => GeneralUse,
                2 => QuietVenue,
                3 => Workspace,
                _ => ParisArena, // a few venue-like flagship stores
            };
            // Cluster 2 is 92 % non-Paris; bias the city by archetype.
            let paris_p = if a == RetailHospitality { 0.08 } else { 0.45 };
            let city = if rng.chance(paris_p) {
                City::Paris
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::Stadium => {
            let a = match rng.categorical(&[0.38, 0.27, 0.28, 0.07]) {
                0 => ProvincialStadium,
                1 => ParisArena,
                2 => QuietVenue,
                _ => GeneralUse,
            };
            let paris_p = match a {
                ProvincialStadium => 0.05,
                ParisArena => 0.62, // ~60 % of cluster 8 in Paris
                _ => 0.5,
            };
            let city = if rng.chance(paris_p) {
                City::Paris
            } else if rng.chance(0.5) {
                City::PROVINCIAL_METRO[rng.index(4)]
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::ExpoCenter => {
            // >50 % to cluster 3 (corporate events), the rest to 5 and 8.
            let a = match rng.categorical(&[0.52, 0.33, 0.10, 0.05]) {
                0 => Workspace,
                1 => QuietVenue,
                2 => ParisArena,
                _ => GeneralUse,
            };
            let city = if rng.chance(0.5) {
                City::Paris
            } else if rng.chance(0.4) {
                City::Lyon // Eurexpo
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::Hotel => {
            let a = if rng.chance(0.75) {
                RetailHospitality
            } else {
                GeneralUse
            };
            let city = if rng.chance(0.3) {
                City::Paris
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::Hospital => {
            let a = if rng.chance(0.92) {
                RetailHospitality
            } else {
                GeneralUse
            };
            let city = if rng.chance(0.3) {
                City::Paris
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::Tunnel => {
            let a = if rng.chance(0.93) {
                GeneralUse
            } else {
                QuietVenue
            };
            let city = if rng.chance(0.3) {
                City::Paris
            } else {
                City::Other
            };
            (city, a)
        }
        Environment::PublicBuilding => {
            let a = match rng.categorical(&[0.62, 0.22, 0.10, 0.06]) {
                0 => RetailHospitality,
                1 => GeneralUse,
                2 => Workspace,
                _ => QuietVenue,
            };
            let city = if rng.chance(0.35) {
                City::Paris
            } else {
                City::Other
            };
            (city, a)
        }
    }
}

/// Builds a site name embedding the environment keyword and the city, so
/// that the Section 5.2.1 name-mining step can recover the environment.
fn site_name(env: Environment, city: City, site_id: usize) -> String {
    let kw = env.name_keywords()[site_id % env.name_keywords().len()];
    format!("{}-{}-{:04}", city.label().to_uppercase(), kw, site_id)
}

/// Antennas environment `env` gets at `scale`: its Table 1 count scaled
/// and rounded, at least one. Saturates instead of overflowing.
fn env_count(env: Environment, scale: f64) -> usize {
    ((env.paper_count() as f64 * scale).round() as usize).max(1)
}

/// Number of antennas [`generate_antennas`] produces at `scale`, computed
/// without generating them (saturating at `usize::MAX`).
pub(crate) fn antenna_count(scale: f64) -> usize {
    Environment::ALL
        .into_iter()
        .map(|env| env_count(env, scale))
        .fold(0, usize::saturating_add)
}

/// Generates the indoor antenna population.
///
/// `scale` multiplies the Table 1 per-environment counts (1.0 reproduces
/// the paper's 4,762 antennas; tests use small scales). Every environment
/// keeps at least one antenna. Antennas are grouped into sites of 2–8
/// antennas, sharing environment, city, archetype and event schedule seed.
pub fn generate_antennas(scale: f64, rng: &mut Rng) -> Vec<Antenna> {
    assert!(scale > 0.0, "generate_antennas: non-positive scale");
    let mut antennas = Vec::new();
    let mut site_id = 0usize;
    for env in Environment::ALL {
        let count = env_count(env, scale);
        let mut produced = 0usize;
        while produced < count {
            let (city, archetype) = sample_city_and_archetype(env, rng);
            let per_site = (2 + rng.index(7)).min(count - produced); // 2..=8
            let per_site = per_site.max(1);
            let name = site_name(env, city, site_id);
            let coord = site_coord(city, rng);
            for _ in 0..per_site {
                antennas.push(Antenna {
                    id: antennas.len(),
                    site_id,
                    site_name: name.clone(),
                    environment: env,
                    city,
                    archetype,
                    coord,
                    rat: RadioTech::sample(rng),
                });
                produced += 1;
            }
            site_id += 1;
        }
    }
    antennas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environments::PAPER_TOTAL_ANTENNAS;
    use std::collections::HashMap;

    fn population() -> Vec<Antenna> {
        let mut rng = Rng::seed_from(42);
        generate_antennas(1.0, &mut rng)
    }

    #[test]
    fn full_scale_matches_table1() {
        let ants = population();
        assert_eq!(ants.len(), PAPER_TOTAL_ANTENNAS);
        let mut per_env: HashMap<Environment, usize> = HashMap::new();
        for a in &ants {
            *per_env.entry(a.environment).or_default() += 1;
        }
        for env in Environment::ALL {
            assert_eq!(per_env[&env], env.paper_count(), "{:?}", env);
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let ants = population();
        for (i, a) in ants.iter().enumerate() {
            assert_eq!(a.id, i);
        }
    }

    #[test]
    fn sites_are_homogeneous() {
        let ants = population();
        let mut by_site: HashMap<usize, Vec<&Antenna>> = HashMap::new();
        for a in &ants {
            by_site.entry(a.site_id).or_default().push(a);
        }
        assert!(by_site.len() >= 600, "got {} sites", by_site.len());
        for (_, group) in by_site {
            let first = group[0];
            for a in &group {
                assert_eq!(a.environment, first.environment);
                assert_eq!(a.city, first.city);
                assert_eq!(a.archetype, first.archetype);
                assert_eq!(a.site_name, first.site_name);
                assert_eq!(a.coord, first.coord);
            }
        }
    }

    #[test]
    fn metro_split_matches_paper() {
        let ants = population();
        let metro: Vec<&Antenna> = ants
            .iter()
            .filter(|a| a.environment == Environment::Metro)
            .collect();
        // Provincial metro antennas must be exactly the ProvincialMetro
        // archetype and never Paris.
        for a in &metro {
            match a.archetype {
                Archetype::ProvincialMetro => assert!(!a.is_paris()),
                Archetype::ParisMetro | Archetype::ParisRail => assert!(a.is_paris()),
                other => panic!("unexpected metro archetype {other:?}"),
            }
        }
        let paris_frac = metro.iter().filter(|a| a.is_paris()).count() as f64 / metro.len() as f64;
        assert!((0.6..0.8).contains(&paris_frac), "paris frac {paris_frac}");
    }

    #[test]
    fn stadiums_dominated_by_green_group() {
        use crate::archetypes::Group;
        let ants = population();
        let stad: Vec<&Antenna> = ants
            .iter()
            .filter(|a| a.environment == Environment::Stadium)
            .collect();
        let green = stad
            .iter()
            .filter(|a| a.archetype.group() == Group::Green)
            .count() as f64
            / stad.len() as f64;
        assert!(green > 0.8, "green fraction {green}");
    }

    #[test]
    fn workspaces_mostly_cluster3() {
        let ants = population();
        let ws: Vec<&Antenna> = ants
            .iter()
            .filter(|a| a.environment == Environment::Workspace)
            .collect();
        let c3 = ws
            .iter()
            .filter(|a| a.archetype == Archetype::Workspace)
            .count() as f64
            / ws.len() as f64;
        assert!(c3 > 0.7, "workspace->cluster3 fraction {c3}");
    }

    #[test]
    fn airports_tunnels_mostly_general() {
        let ants = population();
        for env in [Environment::Airport, Environment::Tunnel] {
            let xs: Vec<&Antenna> = ants.iter().filter(|a| a.environment == env).collect();
            let g = xs
                .iter()
                .filter(|a| a.archetype == Archetype::GeneralUse)
                .count() as f64
                / xs.len() as f64;
            assert!(g > 0.8, "{:?} general fraction {g}", env);
        }
    }

    #[test]
    fn site_names_embed_keywords() {
        let ants = population();
        for a in ants.iter().take(500) {
            let found = a
                .environment
                .name_keywords()
                .iter()
                .any(|kw| a.site_name.contains(kw));
            assert!(found, "name {} lacks env keyword", a.site_name);
        }
    }

    #[test]
    fn scaled_population_shrinks() {
        let mut rng = Rng::seed_from(7);
        let ants = generate_antennas(0.05, &mut rng);
        assert!(ants.len() < 400);
        // Every environment still present.
        for env in Environment::ALL {
            assert!(ants.iter().any(|a| a.environment == env), "{:?}", env);
        }
    }

    #[test]
    fn antenna_count_predicts_the_population() {
        for scale in [0.01, 0.05, 0.5, 1.0] {
            let ants = generate_antennas(scale, &mut Rng::seed_from(7));
            assert_eq!(antenna_count(scale), ants.len(), "scale {scale}");
        }
        assert_eq!(antenna_count(1e300), usize::MAX);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = Rng::seed_from(99);
        let mut r2 = Rng::seed_from(99);
        let a = generate_antennas(0.1, &mut r1);
        let b = generate_antennas(0.1, &mut r2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.archetype, y.archetype);
            assert_eq!(x.site_name, y.site_name);
        }
    }
}
