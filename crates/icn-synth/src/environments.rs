//! Indoor environment types and cities.
//!
//! Section 5.2.1 of the paper identifies **eleven categories** of indoor
//! locations by mining antenna names; Table 1 gives the antenna count per
//! category (summing to the study's 4,762 indoor antennas). This module
//! encodes the taxonomy, the exact Table 1 counts, and the city geography
//! the paper reasons about (Paris vs the provincial metro cities of Lille,
//! Lyon, Rennes and Toulouse).

/// One of the paper's eleven indoor environment types (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Environment {
    /// Underground railway stations (Paris + Lille, Lyon, Rennes, Toulouse).
    Metro,
    /// National and regional railway stations.
    TrainStation,
    /// Airports (CDG, Orly, and regional aerodromes).
    Airport,
    /// Corporate offices and industrial facilities.
    Workspace,
    /// Malls, shopping centres, department stores, MNO retail shops.
    CommercialCenter,
    /// Major sport event venues.
    Stadium,
    /// Corporate, cultural and music event venues.
    ExpoCenter,
    /// Accommodation units.
    Hotel,
    /// Healthcare units.
    Hospital,
    /// Highway and train tunnels.
    Tunnel,
    /// Universities, museums, administration buildings.
    PublicBuilding,
}

impl Environment {
    /// All environments in Table 1 column order.
    pub const ALL: [Environment; 11] = [
        Environment::Metro,
        Environment::TrainStation,
        Environment::Airport,
        Environment::Workspace,
        Environment::CommercialCenter,
        Environment::Stadium,
        Environment::ExpoCenter,
        Environment::Hotel,
        Environment::Hospital,
        Environment::Tunnel,
        Environment::PublicBuilding,
    ];

    /// Antenna count per environment, exactly as reported in Table 1
    /// (`N_env`). The total is 4,762 — the paper's `N`.
    pub fn paper_count(&self) -> usize {
        match self {
            Environment::Metro => 1794,
            Environment::TrainStation => 434,
            Environment::Airport => 187,
            Environment::Workspace => 774,
            Environment::CommercialCenter => 469,
            Environment::Stadium => 451,
            Environment::ExpoCenter => 230,
            Environment::Hotel => 28,
            Environment::Hospital => 53,
            Environment::Tunnel => 220,
            Environment::PublicBuilding => 122,
        }
    }

    /// Human-readable label (used in tables and Sankey output).
    pub fn label(&self) -> &'static str {
        match self {
            Environment::Metro => "Metro",
            Environment::TrainStation => "Trains",
            Environment::Airport => "Airports",
            Environment::Workspace => "Workspaces",
            Environment::CommercialCenter => "Commercial",
            Environment::Stadium => "Stadiums",
            Environment::ExpoCenter => "Expo centers",
            Environment::Hotel => "Hotels",
            Environment::Hospital => "Hospitals",
            Environment::Tunnel => "Tunnels",
            Environment::PublicBuilding => "Public buildings",
        }
    }

    /// Table 1 "Cases" description.
    pub fn cases(&self) -> &'static str {
        match self {
            Environment::Metro => "Paris, Lille, Lyon, Rennes & Toulouse underground railways",
            Environment::TrainStation => "National & regional railway stations",
            Environment::Airport => "France's major airways",
            Environment::Workspace => "Corporate offices, industrial facilities",
            Environment::CommercialCenter => "Malls, shopping stores",
            Environment::Stadium => "Major sport event venues",
            Environment::ExpoCenter => "Corporate, cultural & music event venues",
            Environment::Hotel => "Accommodation units",
            Environment::Hospital => "Healthcare units",
            Environment::Tunnel => "Highway & train tunnels",
            Environment::PublicBuilding => "Universities, museums",
        }
    }

    /// Keywords that appear in site names for this environment; the
    /// name-mining extractor (Section 5.2.1's string manipulation step)
    /// recovers the environment from these.
    pub(crate) fn name_keywords(&self) -> &'static [&'static str] {
        match self {
            Environment::Metro => &["METRO", "RER"],
            Environment::TrainStation => &["GARE"],
            Environment::Airport => &["AEROPORT", "TERMINAL"],
            Environment::Workspace => &["SIEGE", "BUREAUX", "USINE", "CAMPUS-ENTREPRISE"],
            Environment::CommercialCenter => &["CENTRE-COMMERCIAL", "MAGASIN", "BOUTIQUE"],
            Environment::Stadium => &["STADE", "ARENA"],
            Environment::ExpoCenter => &["EXPO", "PALAIS-CONGRES"],
            Environment::Hotel => &["HOTEL"],
            Environment::Hospital => &["HOPITAL", "CHU"],
            Environment::Tunnel => &["TUNNEL"],
            Environment::PublicBuilding => &["UNIVERSITE", "MUSEE", "MAIRIE"],
        }
    }
}

/// Total indoor antennas in the paper (`N`).
pub const PAPER_TOTAL_ANTENNAS: usize = 4762;

/// Geography the paper distinguishes: Paris (plus suburbs) versus the
/// provincial cities (the four non-capital metro cities and others).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum City {
    /// Paris and its suburbs (including RER reach).
    Paris,
    /// Lille (provincial metro city).
    Lille,
    /// Lyon (provincial metro city; hosts the Eurexpo convention centre).
    Lyon,
    /// Rennes (provincial metro city).
    Rennes,
    /// Toulouse (provincial metro city).
    Toulouse,
    /// Any other French city.
    Other,
}

impl City {
    /// True for Paris and its suburbs.
    pub(crate) fn is_paris(&self) -> bool {
        matches!(self, City::Paris)
    }

    /// Short label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            City::Paris => "Paris",
            City::Lille => "Lille",
            City::Lyon => "Lyon",
            City::Rennes => "Rennes",
            City::Toulouse => "Toulouse",
            City::Other => "Other",
        }
    }

    /// The provincial metro cities (cluster 7 of the paper consists solely
    /// of these).
    pub(crate) const PROVINCIAL_METRO: [City; 4] =
        [City::Lille, City::Lyon, City::Rennes, City::Toulouse];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_sum_to_paper_n() {
        let total: usize = Environment::ALL.iter().map(|e| e.paper_count()).sum();
        assert_eq!(total, PAPER_TOTAL_ANTENNAS);
    }

    #[test]
    fn metro_is_largest_env() {
        let max = Environment::ALL
            .iter()
            .max_by_key(|e| e.paper_count())
            .unwrap();
        assert_eq!(*max, Environment::Metro);
    }

    #[test]
    fn hotels_are_smallest_env() {
        let min = Environment::ALL
            .iter()
            .min_by_key(|e| e.paper_count())
            .unwrap();
        assert_eq!(*min, Environment::Hotel);
        assert_eq!(min.paper_count(), 28);
    }

    #[test]
    fn keywords_nonempty_and_distinctive() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for e in Environment::ALL {
            let kws = e.name_keywords();
            assert!(!kws.is_empty(), "{:?} has no keywords", e);
            for kw in kws {
                assert!(seen.insert(*kw), "keyword {kw} reused across environments");
            }
        }
    }

    #[test]
    fn paris_flag() {
        assert!(City::Paris.is_paris());
        for c in City::PROVINCIAL_METRO {
            assert!(!c.is_paris());
        }
    }

    #[test]
    fn labels_unique() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = Environment::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), 11);
    }
}
