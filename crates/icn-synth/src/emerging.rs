//! Emerging-service archetype injection (the paper's Section 7 outlook).
//!
//! The paper anticipates that "with the emergence of applications such as
//! the industrial Internet of Things, augmented reality, and intelligent
//! self-orchestrated environments ... additional clusters may emerge within
//! ICN traffic, requiring further research and provisioning by MNOs". This
//! module simulates that future: it injects a 10th latent profile — an
//! IIoT/AR-flavoured usage pattern concentrated on cloud sync, corporate
//! VPN, video calling and gaming-engine-like streaming — into an existing
//! dataset, so the k-selection experiment can verify that the pipeline
//! *detects* the new cluster (the quality-index drop moves from k = 9 to
//! k = 10).

use crate::antennas::Antenna;
use crate::archetypes::Archetype;
use crate::dataset::Dataset;
use crate::environments::{City, Environment};
use crate::geo::{site_coord, RadioTech};
use crate::services::Service;
use icn_stats::{Matrix, Rng};

/// Ground-truth label id used for injected emerging antennas (the nine
/// regular archetypes use 0–8).
pub const EMERGING_LABEL: usize = 9;

/// Affinity multiplier of the emerging IIoT/AR profile for one service.
///
/// Heavy machine-to-machine and immersive traffic: cloud, VPN, video
/// calling and real-time streaming over-used; human leisure services
/// under-used.
fn emerging_affinity(svc: &Service) -> f64 {
    use crate::services::Category::*;
    match svc.name {
        "Corporate VPN" => 6.0,
        "Twitch" => 2.8, // stand-in for real-time interactive streams
        _ => match svc.category {
            Cloud => 3.8,
            VideoCall => 3.2,
            Gaming => 2.2,
            Work => 1.6,
            Music => 0.2,
            SocialMedia => 0.4,
            Shopping => 0.35,
            News => 0.4,
            VideoStreaming => 0.5,
            _ => 0.7,
        },
    }
}

/// A dataset extended with an emerging cluster, plus its ground truth.
#[derive(Clone, Debug)]
pub struct EmergingDataset {
    /// The extended dataset (emerging antennas appended at the end).
    pub dataset: Dataset,
    /// Ground-truth labels: 0–8 for the regular archetypes, 9 for the
    /// injected emerging profile.
    pub labels: Vec<usize>,
    /// Number of injected antennas.
    pub n_injected: usize,
}

/// Injects `n` emerging-profile antennas (smart-factory workspaces) into a
/// copy of `base`. Traffic for the injected antennas is synthesised with
/// the same machinery as the regular population.
pub fn inject_emerging(base: &Dataset, n: usize, seed: u64) -> EmergingDataset {
    assert!(n > 0, "inject_emerging: need at least one antenna");
    let mut dataset = base.clone();
    let mut rng = Rng::seed_from(seed);
    let first_id = dataset.antennas.len();
    let site_base = dataset
        .antennas
        .iter()
        .map(|a| a.site_id)
        .max()
        .map_or(0, |m| m + 1);

    // Extend the antenna population. The archetype field must hold *some*
    // regular archetype (the enum has nine); ground truth for validation
    // lives in `EmergingDataset::labels`. Workspace is the closest cover
    // story (smart factories are industrial workspaces).
    let mut extra_rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let site_id = site_base + i / 4;
        let antenna = Antenna {
            id: first_id + i,
            site_id,
            site_name: format!("OTHER-USINE-{:04}", site_id),
            environment: Environment::Workspace,
            city: City::Other,
            archetype: Archetype::Workspace,
            coord: site_coord(City::Other, &mut rng),
            rat: RadioTech::sample(&mut rng),
        };
        // Volume: industrial campuses move steady medium traffic.
        let vol = rng.lognormal(12.4, 0.5);
        let mut shares: Vec<f64> = dataset
            .services
            .iter()
            .map(|svc| {
                let noise = rng.lognormal(0.0, 0.3);
                svc.popularity * svc.volume_scale * emerging_affinity(svc) * noise
            })
            .collect();
        let total: f64 = shares.iter().sum();
        extra_rows.push(shares.drain(..).map(|s| vol * s / total).collect());
        dataset.antennas.push(antenna);
    }
    let extra = Matrix::from_rows(&extra_rows);
    dataset.indoor_totals = dataset.indoor_totals.vstack(&extra);

    let mut labels = base.planted_labels();
    labels.extend(std::iter::repeat_n(EMERGING_LABEL, n));

    EmergingDataset {
        dataset,
        labels,
        n_injected: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;

    fn base() -> Dataset {
        Dataset::generate(SynthConfig::small().with_scale(0.05))
    }

    #[test]
    fn injection_extends_population() {
        let b = base();
        let e = inject_emerging(&b, 12, 7);
        assert_eq!(e.dataset.num_antennas(), b.num_antennas() + 12);
        assert_eq!(e.dataset.indoor_totals.rows(), b.indoor_totals.rows() + 12);
        assert_eq!(e.labels.len(), e.dataset.num_antennas());
        assert_eq!(
            e.labels.iter().filter(|&&l| l == EMERGING_LABEL).count(),
            12
        );
    }

    #[test]
    fn injected_rows_have_emerging_signature() {
        let b = base();
        let e = inject_emerging(&b, 8, 7);
        let svcs = &e.dataset.services;
        use crate::services::Category;
        // Aggregate category shares over the injected rows.
        let mut cloud_share = 0.0;
        let mut music_share = 0.0;
        for i in b.num_antennas()..e.dataset.num_antennas() {
            let row = e.dataset.indoor_totals.row(i);
            let total: f64 = row.iter().sum();
            for (j, svc) in svcs.iter().enumerate() {
                match svc.category {
                    Category::Cloud => cloud_share += row[j] / total,
                    Category::Music => music_share += row[j] / total,
                    _ => {}
                }
            }
        }
        // Machine traffic (cloud sync) dwarfs leisure music streaming.
        assert!(
            cloud_share > 5.0 * music_share,
            "cloud {cloud_share} music {music_share}"
        );
    }

    #[test]
    fn injection_is_deterministic() {
        let b = base();
        let e1 = inject_emerging(&b, 10, 3);
        let e2 = inject_emerging(&b, 10, 3);
        assert_eq!(e1.dataset.indoor_totals, e2.dataset.indoor_totals);
    }

    #[test]
    fn original_rows_untouched() {
        let b = base();
        let e = inject_emerging(&b, 5, 9);
        for i in 0..b.num_antennas() {
            assert_eq!(e.dataset.indoor_totals.row(i), b.indoor_totals.row(i));
        }
    }

    #[test]
    #[should_panic(expected = "at least one antenna")]
    fn zero_injection_panics() {
        inject_emerging(&base(), 0, 1);
    }
}
