//! Latent usage archetypes — the planted ground truth.
//!
//! The paper discovers nine clusters of ICN antennas (Section 4.2) organised
//! in three dendrogram groups (orange / green / red) and characterises each
//! through SHAP (Section 5.1.2) and its environments (Section 5.2.2). The
//! synthetic substrate plants exactly that structure: each antenna is
//! assigned one of nine [`Archetype`]s, and an archetype carries
//!
//! * a **service-affinity function** — the multiplicative over-/under-use of
//!   each service relative to global popularity (what RSCA should recover),
//! * a **temporal template** (see [`crate::temporal`]) — commute peaks,
//!   event bursts, office hours, retail hours or a broad diurnal profile,
//! * a **volume regime** — how much total traffic its antennas move.
//!
//! The numeric ids intentionally match the paper's cluster numbering so the
//! experiment harnesses can talk about "cluster 3 ≈ workspaces" directly.
//! The clustering pipeline never sees archetypes; they exist only to
//! generate traffic and to validate recovery (ARI against planted labels).

use crate::services::{Category, Service};
use crate::temporal::TemplateKind;

/// One of the nine planted usage archetypes (ids match the paper clusters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Archetype {
    /// 0 — Paris metro commuters: music + navigation + entertainment.
    ParisMetro,
    /// 1 — general use: streaming, Waze, mail; airports/tunnels/commerce.
    GeneralUse,
    /// 2 — retail & hospitality: app stores, shopping; provincial.
    RetailHospitality,
    /// 3 — workspaces: Teams/LinkedIn/mail; office hours.
    Workspace,
    /// 4 — Paris rail/RER commuters: music + navigation, less entertainment.
    ParisRail,
    /// 5 — quiet venues: flat, under-utilisation of almost everything.
    QuietVenue,
    /// 6 — provincial stadiums: Snapchat/Twitter/sports, narrow.
    ProvincialStadium,
    /// 7 — provincial metros: music but *not* the Paris navigation stack.
    ProvincialMetro,
    /// 8 — Paris arenas: social + a diverse tail (Giphy, WhatsApp, Canal+).
    ParisArena,
}

/// Dendrogram super-group of the paper (Figure 3 branch colours).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Group {
    /// Clusters 0, 7, 4 — commuter hubs.
    Orange,
    /// Clusters 5, 6, 8 — event venues.
    Green,
    /// Clusters 3, 1, 2 — daytime destinations.
    Red,
}

impl Group {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Group::Orange => "orange",
            Group::Green => "green",
            Group::Red => "red",
        }
    }
}

impl Archetype {
    /// All archetypes in paper-cluster-id order (index = cluster id).
    pub const ALL: [Archetype; 9] = [
        Archetype::ParisMetro,        // 0
        Archetype::GeneralUse,        // 1
        Archetype::RetailHospitality, // 2
        Archetype::Workspace,         // 3
        Archetype::ParisRail,         // 4
        Archetype::QuietVenue,        // 5
        Archetype::ProvincialStadium, // 6
        Archetype::ProvincialMetro,   // 7
        Archetype::ParisArena,        // 8
    ];

    /// Paper cluster id (0–8).
    pub fn id(&self) -> usize {
        Archetype::ALL
            .iter()
            .position(|a| a == self)
            .expect("in ALL")
    }

    /// Archetype from a paper cluster id.
    pub fn from_id(id: usize) -> Archetype {
        Archetype::ALL[id]
    }

    /// Dendrogram group, matching Figure 3.
    pub fn group(&self) -> Group {
        match self {
            Archetype::ParisMetro | Archetype::ParisRail | Archetype::ProvincialMetro => {
                Group::Orange
            }
            Archetype::QuietVenue | Archetype::ProvincialStadium | Archetype::ParisArena => {
                Group::Green
            }
            Archetype::GeneralUse | Archetype::RetailHospitality | Archetype::Workspace => {
                Group::Red
            }
        }
    }

    /// Short description used in reports.
    pub fn description(&self) -> &'static str {
        match self {
            Archetype::ParisMetro => "Paris metro commuters",
            Archetype::GeneralUse => "general use (airports, tunnels, commerce)",
            Archetype::RetailHospitality => "retail & hospitality",
            Archetype::Workspace => "workspaces",
            Archetype::ParisRail => "Paris rail / RER commuters",
            Archetype::QuietVenue => "quiet venues (flat usage)",
            Archetype::ProvincialStadium => "provincial stadiums",
            Archetype::ProvincialMetro => "provincial metros",
            Archetype::ParisArena => "Paris arenas",
        }
    }

    /// The temporal template family driving this archetype's hourly shape.
    pub fn template(&self) -> TemplateKind {
        match self {
            Archetype::ParisMetro => TemplateKind::Commute {
                strike_factor: 0.05,
            },
            Archetype::ParisRail => TemplateKind::Commute {
                strike_factor: 0.08,
            },
            Archetype::ProvincialMetro => TemplateKind::Commute {
                strike_factor: 0.45,
            },
            Archetype::ProvincialStadium => TemplateKind::EventBurst,
            Archetype::ParisArena => TemplateKind::EventBurst,
            Archetype::QuietVenue => TemplateKind::QuietWithExpo,
            Archetype::GeneralUse => TemplateKind::BroadDiurnal,
            Archetype::RetailHospitality => TemplateKind::Retail,
            Archetype::Workspace => TemplateKind::Office,
        }
    }

    /// Baseline category affinity (multiplier on global popularity). 1.0 is
    /// neutral; > 1 over-use; < 1 under-use. Per-service overrides refine
    /// this in [`Archetype::service_affinity`].
    fn category_affinity(&self, cat: Category) -> f64 {
        use Category::*;
        match self {
            // --- Orange group: commuters ---
            Archetype::ParisMetro => match cat {
                Music => 3.2,
                Navigation => 2.6,
                WebPortal => 1.9,
                SocialMedia => 1.3,
                News => 1.8,
                Gaming => 1.6,
                Work => 0.45,
                VideoStreaming => 0.65,
                Cloud => 0.6,
                VideoCall => 0.5,
                _ => 1.0,
            },
            Archetype::ParisRail => match cat {
                Music => 3.0,
                Navigation => 2.7,
                Mail => 1.6,
                News => 1.8,
                Gaming => 1.5,
                WebPortal => 0.6,
                SocialMedia => 0.9,
                Work => 0.6,
                VideoStreaming => 0.7,
                VideoCall => 0.5,
                _ => 1.0,
            },
            Archetype::ProvincialMetro => match cat {
                Music => 3.1,
                Navigation => 1.1, // overridden per-service below
                SocialMedia => 1.4,
                News => 1.7,
                Gaming => 1.6,
                Work => 0.5,
                VideoStreaming => 0.7,
                VideoCall => 0.55,
                _ => 1.0,
            },
            // --- Green group: event venues ---
            Archetype::QuietVenue => {
                // Near-flat: everything mildly under-used; only a faint
                // event-venue social tilt (it still shares the green
                // group's "under-utilisation of most services").
                match cat {
                    SocialMedia => 1.45,
                    Work => 0.58,
                    Mail => 0.65,
                    Music => 0.65,
                    Shopping => 0.62,
                    AppStore => 0.62,
                    VideoStreaming => 0.72,
                    _ => 0.78,
                }
            }
            Archetype::ProvincialStadium => match cat {
                SocialMedia => 2.6,
                VideoStreaming => 0.35,
                Music => 0.5,
                Navigation => 0.8,
                Work => 0.35,
                Mail => 0.5,
                Cloud => 0.5,
                Shopping => 0.55,
                _ => 0.7,
            },
            Archetype::ParisArena => match cat {
                SocialMedia => 2.4,
                Messaging => 1.7,
                VideoStreaming => 0.5, // Canal+ overridden up below
                Music => 0.55,
                Work => 0.38,
                Mail => 0.5,
                Gaming => 1.1,
                _ => 0.72,
            },
            // --- Red group: daytime destinations ---
            Archetype::GeneralUse => match cat {
                VideoStreaming => 1.8,
                Mail => 1.7,
                Messaging => 1.3,
                Navigation => 1.0, // Waze up / Mappy down via overrides
                Music => 0.45,
                SocialMedia => 0.85,
                Gaming => 0.7,
                Finance => 1.4,
                News => 1.2,
                Work => 0.9,
                _ => 1.0,
            },
            Archetype::RetailHospitality => match cat {
                AppStore => 2.8,
                Shopping => 2.3,
                WebPortal => 1.3, // Shopping Websites up via override
                Finance => 1.5,
                VideoStreaming => 1.2,
                Music => 0.45,
                Navigation => 0.6,
                SocialMedia => 0.85,
                Gaming => 0.75,
                Work => 0.7,
                News => 1.2,
                _ => 1.0,
            },
            Archetype::Workspace => match cat {
                Work => 2.2,
                Mail => 1.9,
                Cloud => 1.5,
                VideoCall => 1.4,
                Finance => 1.4,
                News => 1.2,
                Music => 0.45,
                Navigation => 0.7,
                VideoStreaming => 0.85,
                SocialMedia => 0.85,
                Gaming => 0.7,
                Shopping => 0.9,
                _ => 1.0,
            },
        }
    }

    /// Raw (pre-blending) affinity for one service: the category baseline
    /// adjusted by the paper's named service-level distinctions.
    fn raw_affinity(&self, svc: &Service) -> f64 {
        let base = self.category_affinity(svc.category);
        let ovr: Option<f64> = match self {
            Archetype::ParisMetro => match svc.name {
                // §5.1.2: entertainment/shopping/sports websites & Yahoo
                // separate cluster 0 from cluster 4.
                "Yahoo" => Some(2.2),
                "Entertainment Websites" => Some(2.4),
                "Shopping Websites" => Some(2.0),
                "Sports Websites" => Some(1.8),
                "Mappy" => Some(2.8),
                "Transportation Websites" => Some(3.0),
                "Citymapper" => Some(2.7),
                "Twitter" => Some(1.9),
                _ => None,
            },
            Archetype::ParisRail => match svc.name {
                "Yahoo" => Some(0.5),
                "Entertainment Websites" => Some(0.45),
                "Shopping Websites" => Some(0.55),
                "Sports Websites" => Some(0.6),
                "Mappy" => Some(2.7),
                "Transportation Websites" => Some(2.9),
                "SNCF Connect" => Some(3.2),
                "Twitter" => Some(0.55),
                _ => None,
            },
            Archetype::ProvincialMetro => match svc.name {
                // §5.2.2: Mappy / transport websites comparatively
                // under-used outside the complex Parisian network.
                "Mappy" => Some(0.4),
                "Transportation Websites" => Some(0.38),
                "Citymapper" => Some(0.4),
                "SNCF Connect" => Some(0.6),
                "Google Maps" => Some(1.3),
                "Twitter" => Some(2.0),
                _ => None,
            },
            Archetype::QuietVenue => None,
            Archetype::ProvincialStadium => match svc.name {
                "Snapchat" => Some(3.2),
                "Twitter" => Some(3.0),
                "Sports Websites" => Some(3.4),
                // §5.1.2: Giphy/WhatsApp/Canal+ absent in cluster 6.
                "Giphy" => Some(0.3),
                "WhatsApp" => Some(0.6),
                "Canal+" => Some(0.3),
                "myCanal" => Some(0.35),
                _ => None,
            },
            Archetype::ParisArena => match svc.name {
                "Snapchat" => Some(3.0),
                "Twitter" => Some(2.8),
                "Sports Websites" => Some(3.0),
                // ... and present in cluster 8.
                "Giphy" => Some(2.6),
                "WhatsApp" => Some(2.2),
                "Canal+" => Some(2.4),
                "myCanal" => Some(1.8),
                "Netflix" => Some(0.4),
                "Disney+" => Some(0.45),
                _ => None,
            },
            Archetype::GeneralUse => match svc.name {
                "Netflix" => Some(2.2),
                "Disney+" => Some(2.1),
                "Amazon Prime Video" => Some(2.1),
                "Waze" => Some(2.6), // tunnels/airports driving navigation
                "Mappy" => Some(0.4),
                "Transportation Websites" => Some(0.45),
                "Spotify" => Some(0.55),
                "SoundCloud" => Some(0.5),
                _ => None,
            },
            Archetype::RetailHospitality => match svc.name {
                "Google Play Store" => Some(3.4),
                "Apple App Store" => Some(2.4),
                "Shopping Websites" => Some(2.8),
                "Netflix" => Some(1.7), // hotels at night (§6)
                "Spotify" => Some(0.4),
                "Waze" => Some(0.6),
                _ => None,
            },
            Archetype::Workspace => match svc.name {
                "Microsoft Teams" => Some(3.0),
                "LinkedIn" => Some(2.6),
                "Outlook Mail" => Some(2.4),
                "Microsoft 365" => Some(2.5),
                "Corporate VPN" => Some(2.7),
                "Netflix" => Some(0.5), // lunch-break only (§6)
                "Waze" => Some(0.9),    // evening commute home
                "Spotify" => Some(0.45),
                _ => None,
            },
        };
        ovr.unwrap_or(base)
    }

    /// Final affinity multiplier for one concrete service.
    ///
    /// The raw archetype affinity is blended towards the geometric mean of
    /// its dendrogram group (35 % group / 65 % archetype, in log space).
    /// This is what plants the paper's Figure 3 hierarchy: archetypes of
    /// one group stay close to each other (their shared group profile)
    /// while the groups themselves remain well separated — so Ward's
    /// criterion recovers three super-groups of three sub-clusters each.
    pub(crate) fn service_affinity(&self, svc: &Service) -> f64 {
        const GROUP_BLEND: f64 = 0.35;
        let group = self.group();
        let mut log_sum = 0.0;
        let mut n = 0.0;
        for a in Archetype::ALL {
            if a.group() == group {
                log_sum += a.raw_affinity(svc).ln();
                n += 1.0;
            }
        }
        let group_log_mean = log_sum / n;
        let raw = self.raw_affinity(svc);
        (GROUP_BLEND * group_log_mean + (1.0 - GROUP_BLEND) * raw.ln()).exp()
    }

    /// `(mu, sigma)` of the log-normal total-volume regime for antennas of
    /// this archetype, in natural-log MB over the two-month period.
    pub(crate) fn volume_lognormal(&self) -> (f64, f64) {
        match self {
            // Busy commuter hubs move the most traffic.
            Archetype::ParisMetro => (13.2, 0.55),
            Archetype::ParisRail => (13.0, 0.6),
            Archetype::ProvincialMetro => (12.4, 0.55),
            // Venues are bursty but low on aggregate.
            Archetype::QuietVenue => (10.2, 0.7),
            Archetype::ProvincialStadium => (11.2, 0.7),
            Archetype::ParisArena => (11.8, 0.6),
            // Daytime destinations sit in between.
            Archetype::GeneralUse => (12.6, 0.8),
            Archetype::RetailHospitality => (11.9, 0.75),
            Archetype::Workspace => (12.2, 0.6),
        }
    }
}

/// Every archetype's [`Archetype::service_affinity`] for every service of
/// a catalog, computed once per dataset: row `a.id()` holds archetype
/// `a`'s multipliers in catalog order. The totals matrices read it for
/// each of their N·M (indoor) and 2·N_out·M (outdoor) entries instead of
/// recomputing four logarithms, an exponential and the name matches per
/// entry.
pub(crate) struct AffinityTable {
    values: Vec<f64>,
    services: usize,
}

impl AffinityTable {
    /// The 9 × M table of `services`.
    pub(crate) fn new(services: &[Service]) -> AffinityTable {
        let values = Archetype::ALL
            .iter()
            .flat_map(|a| services.iter().map(|svc| a.service_affinity(svc)))
            .collect();
        AffinityTable {
            values,
            services: services.len(),
        }
    }

    /// Archetype `arch`'s affinity per service, in catalog order.
    pub(crate) fn row(&self, arch: Archetype) -> &[f64] {
        let start = arch.id() * self.services;
        &self.values[start..start + self.services]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{catalog, index_of};
    use icn_stats::check::cases;

    #[test]
    fn ids_are_consistent() {
        for (i, a) in Archetype::ALL.iter().enumerate() {
            assert_eq!(a.id(), i);
            assert_eq!(Archetype::from_id(i), *a);
        }
    }

    #[test]
    fn groups_match_paper_figure3() {
        assert_eq!(Archetype::from_id(0).group(), Group::Orange);
        assert_eq!(Archetype::from_id(7).group(), Group::Orange);
        assert_eq!(Archetype::from_id(4).group(), Group::Orange);
        assert_eq!(Archetype::from_id(5).group(), Group::Green);
        assert_eq!(Archetype::from_id(6).group(), Group::Green);
        assert_eq!(Archetype::from_id(8).group(), Group::Green);
        assert_eq!(Archetype::from_id(3).group(), Group::Red);
        assert_eq!(Archetype::from_id(1).group(), Group::Red);
        assert_eq!(Archetype::from_id(2).group(), Group::Red);
    }

    #[test]
    fn orange_group_over_uses_music() {
        let c = catalog();
        let spotify = &c[index_of(&c, "Spotify").unwrap()];
        for a in [
            Archetype::ParisMetro,
            Archetype::ParisRail,
            Archetype::ProvincialMetro,
        ] {
            assert!(a.service_affinity(spotify) > 2.0, "{:?}", a);
        }
        // ... and the red group does not.
        assert!(Archetype::Workspace.service_affinity(spotify) < 0.6);
        assert!(Archetype::GeneralUse.service_affinity(spotify) < 0.7);
    }

    #[test]
    fn provincial_metro_under_uses_paris_navigation() {
        let c = catalog();
        let mappy = &c[index_of(&c, "Mappy").unwrap()];
        // Group blending pulls both towards the orange mean, but the
        // Paris/provincial contrast must survive (paper Section 5.2.2).
        assert!(Archetype::ParisMetro.service_affinity(mappy) > 1.8);
        assert!(Archetype::ProvincialMetro.service_affinity(mappy) < 0.85);
        assert!(
            Archetype::ParisMetro.service_affinity(mappy)
                > 2.5 * Archetype::ProvincialMetro.service_affinity(mappy)
        );
    }

    #[test]
    fn cluster6_vs_8_giphy_whatsapp_canal() {
        let c = catalog();
        for name in ["Giphy", "WhatsApp", "Canal+"] {
            let svc = &c[index_of(&c, name).unwrap()];
            assert!(
                Archetype::ParisArena.service_affinity(svc)
                    > 2.0 * Archetype::ProvincialStadium.service_affinity(svc),
                "{name}"
            );
        }
    }

    #[test]
    fn workspace_is_business_oriented() {
        let c = catalog();
        for name in ["Microsoft Teams", "LinkedIn", "Outlook Mail"] {
            let svc = &c[index_of(&c, name).unwrap()];
            assert!(Archetype::Workspace.service_affinity(svc) > 1.8, "{name}");
            // ... and stronger there than at its red-group siblings.
            assert!(
                Archetype::Workspace.service_affinity(svc)
                    > 1.2 * Archetype::GeneralUse.service_affinity(svc),
                "{name}"
            );
        }
        let netflix = &c[index_of(&c, "Netflix").unwrap()];
        assert!(Archetype::Workspace.service_affinity(netflix) < 1.0);
    }

    #[test]
    fn quiet_venue_is_nearly_flat() {
        // Cluster 5 "treats most of its Internet services equally": the
        // spread of its affinities must be far smaller than a stadium's.
        let c = catalog();
        let spread = |a: Archetype| {
            let affs: Vec<f64> = c.iter().map(|s| a.service_affinity(s).ln()).collect();
            let mean = affs.iter().sum::<f64>() / affs.len() as f64;
            (affs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / affs.len() as f64).sqrt()
        };
        assert!(
            spread(Archetype::QuietVenue) < 0.7 * spread(Archetype::ProvincialStadium),
            "quiet {} vs stadium {}",
            spread(Archetype::QuietVenue),
            spread(Archetype::ProvincialStadium)
        );
    }

    #[test]
    fn general_use_prefers_waze_over_mappy() {
        let c = catalog();
        let waze = &c[index_of(&c, "Waze").unwrap()];
        let mappy = &c[index_of(&c, "Mappy").unwrap()];
        assert!(Archetype::GeneralUse.service_affinity(waze) > 1.5);
        assert!(
            Archetype::GeneralUse.service_affinity(waze)
                > 2.5 * Archetype::GeneralUse.service_affinity(mappy)
        );
    }

    #[test]
    fn retail_over_uses_play_store_and_shopping() {
        let c = catalog();
        let play = &c[index_of(&c, "Google Play Store").unwrap()];
        let shopw = &c[index_of(&c, "Shopping Websites").unwrap()];
        assert!(Archetype::RetailHospitality.service_affinity(play) > 2.0);
        assert!(Archetype::RetailHospitality.service_affinity(shopw) > 1.7);
        // Retail dominates its siblings on the app store.
        assert!(
            Archetype::RetailHospitality.service_affinity(play)
                > 1.5 * Archetype::GeneralUse.service_affinity(play)
        );
    }

    #[test]
    fn affinities_are_positive_and_bounded() {
        let c = catalog();
        for a in Archetype::ALL {
            for s in &c {
                let v = a.service_affinity(s);
                assert!(v > 0.0 && v < 10.0, "{:?}/{}: {v}", a, s.name);
            }
        }
    }

    #[test]
    fn commuter_volumes_largest() {
        let (mu_metro, _) = Archetype::ParisMetro.volume_lognormal();
        let (mu_quiet, _) = Archetype::QuietVenue.volume_lognormal();
        assert!(mu_metro > mu_quiet + 2.0);
    }

    #[test]
    fn affinities_positive_bounded() {
        cases(32, |case, rng| {
            let svcs = catalog();
            let svc = &svcs[rng.index(svcs.len())];
            for arch in Archetype::ALL {
                let v = arch.service_affinity(svc);
                assert!(v > 0.0 && v < 10.0, "case {case}: {v}");
            }
        });
    }
}
