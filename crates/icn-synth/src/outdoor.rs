//! Outdoor antenna population (Section 5.3).
//!
//! The paper probes ~20,000 **outdoor** macro antennas located within 1 km
//! of the indoor ones and shows that, when passed through the same RSCA +
//! surrogate-classifier machinery, ~70 % of them land in the general-use
//! cluster 1 — the environment-driven diversity of indoor antennas is
//! absent outdoors. We model an outdoor antenna as a *mixture* of usage
//! profiles: predominantly the general-use profile (outdoor BSs serve many
//! concurrent activities) with a small leakage from the neighbourhood's
//! indoor environment (an outdoor BS near a stadium does see a faint echo
//! of event traffic, strongly diluted by pass-by users).

use crate::antennas::Antenna;
use crate::archetypes::{AffinityTable, Archetype};
use crate::geo::{offset_within, Coord};
use crate::services::Service;
use crate::traffic::fill_rows;
use icn_stats::{Matrix, Rng};

/// One outdoor macro antenna near an indoor site.
#[derive(Clone, Debug)]
pub struct OutdoorAntenna {
    /// Stable id (row in the outdoor totals matrix).
    pub id: usize,
    /// The indoor antenna this outdoor BS neighbours (within 1 km).
    pub neighbor_indoor_id: usize,
    /// Weight of the neighbourhood indoor profile leaking into the outdoor
    /// mixture (0 ⇒ pure general use; small in practice).
    pub leakage: f64,
    /// Macro-site coordinate, within 1 km of the indoor neighbour
    /// (the Section 5.3 selection radius).
    pub coord: Coord,
}

/// Mixing parameters for outdoor traffic synthesis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutdoorConfig {
    /// Number of outdoor antennas per indoor antenna (the paper has ~20k
    /// outdoor for 4,762 indoor ⇒ ≈ 4.2; we default to 4).
    pub per_indoor: usize,
    /// Mean leakage of the neighbour indoor profile (beta-ish around this).
    pub mean_leakage: f64,
}

impl Default for OutdoorConfig {
    fn default() -> Self {
        OutdoorConfig {
            per_indoor: 4,
            mean_leakage: 0.12,
        }
    }
}

/// Generates the outdoor population: `per_indoor` outdoor BSs around each
/// indoor antenna, each with a small random leakage of the local profile.
pub(crate) fn generate_outdoor(
    indoor: &[Antenna],
    cfg: &OutdoorConfig,
    root: &Rng,
) -> Vec<OutdoorAntenna> {
    let mut out = Vec::with_capacity(indoor.len() * cfg.per_indoor);
    for a in indoor {
        let mut rng = root.fork(0x0D00_0000 ^ a.id as u64);
        for _ in 0..cfg.per_indoor {
            // Leakage: clamped exponential around the mean, capped well
            // below 0.5 so general use always dominates.
            let leak = (rng.exponential(1.0 / cfg.mean_leakage)).min(0.35);
            out.push(OutdoorAntenna {
                id: out.len(),
                neighbor_indoor_id: a.id,
                leakage: leak,
                coord: offset_within(a.coord, 1_000.0, &mut rng),
            });
        }
    }
    out
}

/// Builds the outdoor totals matrix `T_out` (outdoor antennas × services).
///
/// Each outdoor antenna's share vector is
/// `(1 − leakage) × general-use shares + leakage × neighbour-profile shares`,
/// both drawn with the same machinery as indoor antennas. Rows fill in
/// parallel from their own forked streams, bit-identical at any
/// `ICN_THREADS`.
pub(crate) fn outdoor_totals_matrix(
    outdoor: &[OutdoorAntenna],
    indoor: &[Antenna],
    services: &[Service],
    affinity: &AffinityTable,
    root: &Rng,
) -> Matrix {
    let mut t = Matrix::zeros(outdoor.len(), services.len());
    fill_rows(&mut t, |i, row| {
        let o = &outdoor[i];
        let neighbor = &indoor[o.neighbor_indoor_id];
        let mut rng = root.fork(0x0D0A_0000 ^ o.id as u64);
        let vol = rng.lognormal(13.5, 0.7);
        // General-use base shares with this antenna's own noise.
        let base = mixture_shares(services, affinity.row(Archetype::GeneralUse), &mut rng);
        let local = mixture_shares(services, affinity.row(neighbor.archetype), &mut rng);
        for j in 0..services.len() {
            let share = (1.0 - o.leakage) * base[j] + o.leakage * local[j];
            row[j] = vol * share;
        }
    });
    t
}

fn mixture_shares(services: &[Service], affinity: &[f64], rng: &mut Rng) -> Vec<f64> {
    let mut shares: Vec<f64> = services
        .iter()
        .zip(affinity)
        .map(|(svc, &aff)| {
            let noise = rng.lognormal(0.0, 0.3);
            svc.popularity * svc.volume_scale * aff * noise
        })
        .collect();
    let total: f64 = shares.iter().sum();
    for s in &mut shares {
        *s /= total;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antennas::generate_antennas;
    use crate::services::catalog;

    fn setup() -> (Vec<Antenna>, Vec<OutdoorAntenna>, Vec<Service>, Rng) {
        let mut rng = Rng::seed_from(77);
        let indoor = generate_antennas(0.02, &mut rng);
        let root = Rng::seed_from(77);
        let outdoor = generate_outdoor(&indoor, &OutdoorConfig::default(), &root);
        (indoor, outdoor, catalog(), root)
    }

    #[test]
    fn population_size_matches_config() {
        let (indoor, outdoor, _, _) = setup();
        assert_eq!(outdoor.len(), indoor.len() * 4);
    }

    #[test]
    fn leakage_small_and_bounded() {
        let (_, outdoor, _, _) = setup();
        for o in &outdoor {
            assert!((0.0..=0.35).contains(&o.leakage));
        }
        let mean: f64 = outdoor.iter().map(|o| o.leakage).sum::<f64>() / outdoor.len() as f64;
        assert!(mean < 0.2, "mean leakage {mean}");
    }

    #[test]
    fn totals_shape_and_positivity() {
        let (indoor, outdoor, svcs, root) = setup();
        let t = outdoor_totals_matrix(&outdoor, &indoor, &svcs, &AffinityTable::new(&svcs), &root);
        assert_eq!(t.shape(), (outdoor.len(), svcs.len()));
        assert!(t.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn outdoor_profile_close_to_general_use() {
        // An outdoor antenna's share vector must correlate more with the
        // general-use profile than with its (non-general) neighbour's.
        let (indoor, outdoor, svcs, root) = setup();
        let t = outdoor_totals_matrix(&outdoor, &indoor, &svcs, &AffinityTable::new(&svcs), &root);
        // Expected (noise-free) share vectors per archetype:
        let expected = |arch: Archetype| -> Vec<f64> {
            let mut v: Vec<f64> = svcs
                .iter()
                .map(|s| s.popularity * s.volume_scale * arch.service_affinity(s))
                .collect();
            let tot: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= tot);
            v
        };
        let general = expected(Archetype::GeneralUse);
        let mut checked = 0;
        for (i, o) in outdoor.iter().enumerate() {
            let narch = indoor[o.neighbor_indoor_id].archetype;
            if narch == Archetype::GeneralUse {
                continue;
            }
            let row = t.row(i);
            let tot: f64 = row.iter().sum();
            let shares: Vec<f64> = row.iter().map(|v| v / tot).collect();
            let local = expected(narch);
            let c_gen = icn_stats::summary::pearson(&shares, &general);
            let c_loc = icn_stats::summary::pearson(&shares, &local);
            assert!(
                c_gen > c_loc,
                "outdoor {i}: general corr {c_gen} < local corr {c_loc}"
            );
            checked += 1;
            if checked > 30 {
                break;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn outdoor_sites_within_1km_of_neighbor() {
        // The Section 5.3 relation: every outdoor antenna sits inside the
        // 1 km radius of its indoor neighbour.
        let (indoor, outdoor, _, _) = setup();
        for o in outdoor.iter().take(200) {
            let d = crate::geo::haversine_m(indoor[o.neighbor_indoor_id].coord, o.coord);
            assert!(d <= 1_001.0, "outdoor {} at {d} m", o.id);
        }
    }

    #[test]
    fn deterministic_generation() {
        let (indoor, o1, svcs, root) = setup();
        let o2 = generate_outdoor(&indoor, &OutdoorConfig::default(), &root);
        assert_eq!(o1.len(), o2.len());
        for (a, b) in o1.iter().zip(&o2) {
            assert_eq!(a.leakage, b.leakage);
        }
        let table = AffinityTable::new(&svcs);
        let t1 = outdoor_totals_matrix(&o1, &indoor, &svcs, &table, &root);
        let t2 = outdoor_totals_matrix(&o2, &indoor, &svcs, &table, &root);
        assert_eq!(t1, t2);
    }
}
