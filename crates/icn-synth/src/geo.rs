//! Geography: coordinates, haversine distances and the 1 km neighbourhood.
//!
//! Section 5.3 pairs each indoor antenna with "all the outdoor antennas
//! found within a 1 km radius". This module gives sites real coordinates —
//! city centres with urban scatter — and the haversine metric used to
//! verify the neighbourhood relation. Section 3 also notes the feed covers
//! a 5G NSA network whose indoor layer is still "vast majority 4G";
//! [`RadioTech`] models that split.

use crate::environments::City;
use icn_stats::Rng;

/// Radio access technology of an antenna (5G NSA deployment: both RATs
/// share the 4G core, which is why one probe sees both — Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RadioTech {
    /// 4G eNodeB (the vast majority of ICN antennas in the study).
    Lte,
    /// 5G NR gNodeB (scarce indoors at the study's roll-out stage).
    Nr,
}

impl RadioTech {
    /// Draws the technology with the paper's "vast majority 4G" skew.
    pub(crate) fn sample(rng: &mut Rng) -> RadioTech {
        if rng.chance(0.06) {
            RadioTech::Nr
        } else {
            RadioTech::Lte
        }
    }

    /// Short label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            RadioTech::Lte => "4G",
            RadioTech::Nr => "5G",
        }
    }
}

/// A WGS-84 coordinate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coord {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// Mean Earth radius in metres.
const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// Haversine great-circle distance between two coordinates, in metres:
/// the yardstick the site-placement tests measure radii with.
#[cfg(test)]
pub(crate) fn haversine_m(a: Coord, b: Coord) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

/// The city centre each [`City`] scatters its sites around.
fn city_center(city: City) -> Coord {
    match city {
        City::Paris => Coord {
            lat: 48.8566,
            lon: 2.3522,
        },
        City::Lille => Coord {
            lat: 50.6292,
            lon: 3.0573,
        },
        City::Lyon => Coord {
            lat: 45.7640,
            lon: 4.8357,
        },
        City::Rennes => Coord {
            lat: 48.1173,
            lon: -1.6778,
        },
        City::Toulouse => Coord {
            lat: 43.6047,
            lon: 1.4442,
        },
        // "Other" stands for the rest of France; we anchor it at its
        // geographic centre and scatter widely.
        City::Other => Coord {
            lat: 46.6034,
            lon: 1.8883,
        },
    }
}

/// Urban scatter radius (metres) for sites of a city.
fn scatter_radius_m(city: City) -> f64 {
    match city {
        City::Paris => 15_000.0,
        City::Other => 350_000.0, // all over the country
        _ => 8_000.0,
    }
}

/// Draws a site coordinate: the city centre plus uniform-in-disc scatter.
pub(crate) fn site_coord(city: City, rng: &mut Rng) -> Coord {
    let center = city_center(city);
    offset_within(center, scatter_radius_m(city), rng)
}

/// A coordinate uniformly distributed in the disc of radius `radius_m`
/// around `center` (good flat-earth approximation at these scales). Used
/// both for urban scatter and for dropping outdoor macros within the 1 km
/// neighbourhood of an indoor site.
pub(crate) fn offset_within(center: Coord, radius_m: f64, rng: &mut Rng) -> Coord {
    assert!(radius_m >= 0.0, "offset_within: negative radius");
    // Uniform over the disc: r = R√u.
    let r = radius_m * rng.next_f64().sqrt();
    let theta = rng.uniform(0.0, std::f64::consts::TAU);
    let dlat_m = r * theta.sin();
    let dlon_m = r * theta.cos();
    let lat = center.lat + (dlat_m / EARTH_RADIUS_M).to_degrees();
    let lon = center.lon + (dlon_m / (EARTH_RADIUS_M * center.lat.to_radians().cos())).to_degrees();
    Coord { lat, lon }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_value() {
        // Paris ↔ Lyon ≈ 392 km.
        let d = haversine_m(city_center(City::Paris), city_center(City::Lyon));
        assert!((d - 392_000.0).abs() < 10_000.0, "distance {d}");
    }

    #[test]
    fn haversine_identity_and_symmetry() {
        let p = city_center(City::Rennes);
        let q = city_center(City::Toulouse);
        assert_eq!(haversine_m(p, p), 0.0);
        assert!((haversine_m(p, q) - haversine_m(q, p)).abs() < 1e-6);
    }

    #[test]
    fn offset_stays_within_radius() {
        let mut rng = Rng::seed_from(5);
        let center = city_center(City::Paris);
        for _ in 0..500 {
            let c = offset_within(center, 1_000.0, &mut rng);
            let d = haversine_m(center, c);
            assert!(d <= 1_001.0, "distance {d} exceeds 1 km");
        }
    }

    #[test]
    fn offset_is_spread_not_degenerate() {
        let mut rng = Rng::seed_from(6);
        let center = city_center(City::Lyon);
        let mean_d: f64 = (0..500)
            .map(|_| haversine_m(center, offset_within(center, 1_000.0, &mut rng)))
            .sum::<f64>()
            / 500.0;
        // Uniform-in-disc mean distance is 2R/3.
        assert!((mean_d - 666.7).abs() < 60.0, "mean {mean_d}");
    }

    #[test]
    fn site_coords_cluster_near_their_city() {
        let mut rng = Rng::seed_from(7);
        for city in [
            City::Paris,
            City::Lille,
            City::Lyon,
            City::Rennes,
            City::Toulouse,
        ] {
            let c = site_coord(city, &mut rng);
            let d = haversine_m(city_center(city), c);
            assert!(d <= 15_100.0, "{city:?} site {d} m from centre");
        }
    }

    #[test]
    fn radio_tech_mostly_lte() {
        let mut rng = Rng::seed_from(8);
        let n = 20_000;
        let nr = (0..n)
            .filter(|_| RadioTech::sample(&mut rng) == RadioTech::Nr)
            .count();
        let frac = nr as f64 / n as f64;
        assert!((frac - 0.06).abs() < 0.01, "NR fraction {frac}");
    }

    #[test]
    fn labels() {
        assert_eq!(RadioTech::Lte.label(), "4G");
        assert_eq!(RadioTech::Nr.label(), "5G");
    }
}
