//! The mobile-service catalog.
//!
//! The paper considers **M = 73 mobile services** spanning "social
//! networking, messaging, audio and video streaming, transportation,
//! professional activities, and well-being" (Section 3). The exact list is
//! proprietary; this catalog reconstructs a plausible French-market set of
//! 73 services — including every service the paper names in its analysis
//! (Spotify, SoundCloud, Deezer, Apple Music, Mappy, Google Maps, Waze,
//! transportation websites, Snapchat, Twitter, sports websites, Giphy,
//! WhatsApp, Canal+, Netflix, Disney+, Amazon Prime Video, Microsoft Teams,
//! LinkedIn, Google Play Store, shopping websites, Yahoo, entertainment
//! websites, mailing services) — grouped into categories with per-service
//! global popularity and volume-scale parameters.
//!
//! Popularity controls what fraction of traffic a service attracts at a
//! *neutral* antenna; volume scale models that streaming moves orders of
//! magnitude more bytes than texting, the imbalance that motivates RCA in
//! Section 4.1.

/// Functional category of a mobile service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Audio streaming (Spotify, Deezer, ...).
    Music,
    /// Maps, transit and driving navigation.
    Navigation,
    /// Video streaming (Netflix, YouTube, ...).
    VideoStreaming,
    /// Social networks and content sharing.
    SocialMedia,
    /// Person-to-person messaging.
    Messaging,
    /// Professional / business tools.
    Work,
    /// E-mail providers.
    Mail,
    /// Generic web portals and thematic websites.
    WebPortal,
    /// Application stores.
    AppStore,
    /// On-line shopping platforms.
    Shopping,
    /// Mobile gaming.
    Gaming,
    /// Personal cloud storage and sync.
    Cloud,
    /// Video calling.
    VideoCall,
    /// Health, fitness and well-being.
    Wellbeing,
    /// News outlets.
    News,
    /// Banking and finance.
    Finance,
}

impl Category {
    /// All categories, in catalog order.
    pub const ALL: [Category; 16] = [
        Category::Music,
        Category::Navigation,
        Category::VideoStreaming,
        Category::SocialMedia,
        Category::Messaging,
        Category::Work,
        Category::Mail,
        Category::WebPortal,
        Category::AppStore,
        Category::Shopping,
        Category::Gaming,
        Category::Cloud,
        Category::VideoCall,
        Category::Wellbeing,
        Category::News,
        Category::Finance,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Music => "Music",
            Category::Navigation => "Navigation",
            Category::VideoStreaming => "Video streaming",
            Category::SocialMedia => "Social media",
            Category::Messaging => "Messaging",
            Category::Work => "Work",
            Category::Mail => "Mail",
            Category::WebPortal => "Web portal",
            Category::AppStore => "App store",
            Category::Shopping => "Shopping",
            Category::Gaming => "Gaming",
            Category::Cloud => "Cloud",
            Category::VideoCall => "Video call",
            Category::Wellbeing => "Well-being",
            Category::News => "News",
            Category::Finance => "Finance",
        }
    }
}

/// One mobile service of the catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct Service {
    /// Display name (e.g. `"Spotify"`).
    pub name: &'static str,
    /// Functional category.
    pub category: Category,
    /// Relative share of users engaging with the service at a neutral
    /// antenna (arbitrary units; normalised by the generator).
    pub popularity: f64,
    /// Mean bytes moved per unit of engagement, relative to a baseline of
    /// 1.0 ≈ light browsing. Streaming ≫ messaging, per Section 4.1.
    pub volume_scale: f64,
}

macro_rules! svc {
    ($name:literal, $cat:ident, $pop:expr, $vol:expr) => {
        Service {
            name: $name,
            category: Category::$cat,
            popularity: $pop,
            volume_scale: $vol,
        }
    };
}

/// The full 73-service catalog, in stable index order. Index in this slice
/// is the service's column in the traffic matrix.
pub fn catalog() -> Vec<Service> {
    vec![
        // --- Music (5) ---
        svc!("Spotify", Music, 7.0, 12.0),
        svc!("SoundCloud", Music, 1.2, 10.0),
        svc!("Deezer", Music, 2.5, 11.0),
        svc!("Apple Music", Music, 2.2, 11.0),
        svc!("YouTube Music", Music, 1.8, 12.0),
        // --- Navigation (6) ---
        svc!("Google Maps", Navigation, 8.0, 2.0),
        svc!("Mappy", Navigation, 1.0, 1.5),
        svc!("Waze", Navigation, 3.5, 2.5),
        svc!("Citymapper", Navigation, 1.0, 1.2),
        svc!("Transportation Websites", Navigation, 1.5, 1.0),
        svc!("SNCF Connect", Navigation, 1.6, 1.2),
        // --- Video streaming (8) ---
        svc!("Netflix", VideoStreaming, 8.5, 60.0),
        svc!("YouTube", VideoStreaming, 10.0, 45.0),
        svc!("Disney+", VideoStreaming, 3.0, 55.0),
        svc!("Amazon Prime Video", VideoStreaming, 3.2, 55.0),
        svc!("Canal+", VideoStreaming, 1.8, 50.0),
        svc!("myCanal", VideoStreaming, 1.5, 50.0),
        svc!("Twitch", VideoStreaming, 2.2, 40.0),
        svc!("Molotov TV", VideoStreaming, 0.9, 45.0),
        // --- Social media (7) ---
        svc!("Snapchat", SocialMedia, 6.0, 15.0),
        svc!("Twitter", SocialMedia, 5.0, 6.0),
        svc!("Instagram", SocialMedia, 8.0, 18.0),
        svc!("Facebook", SocialMedia, 7.0, 10.0),
        svc!("TikTok", SocialMedia, 7.5, 30.0),
        svc!("Giphy", SocialMedia, 0.8, 4.0),
        svc!("Pinterest", SocialMedia, 1.5, 8.0),
        // --- Messaging (5) ---
        svc!("WhatsApp", Messaging, 7.5, 3.0),
        svc!("Facebook Messenger", Messaging, 4.5, 2.5),
        svc!("Telegram", Messaging, 2.0, 2.5),
        svc!("iMessage", Messaging, 3.5, 2.0),
        svc!("Discord", Messaging, 1.8, 4.0),
        // --- Work (7) ---
        svc!("Microsoft Teams", Work, 3.0, 8.0),
        svc!("LinkedIn", Work, 2.5, 4.0),
        svc!("Zoom", Work, 1.5, 9.0),
        svc!("Slack", Work, 1.0, 3.0),
        svc!("Microsoft 365", Work, 2.0, 4.0),
        svc!("Google Workspace", Work, 1.8, 4.0),
        svc!("Corporate VPN", Work, 1.2, 5.0),
        // --- Mail (4) ---
        svc!("Gmail", Mail, 4.5, 1.5),
        svc!("Outlook Mail", Mail, 2.5, 1.5),
        svc!("Yahoo Mail", Mail, 0.8, 1.2),
        svc!("Orange Mail", Mail, 1.6, 1.2),
        // --- Web portals (6) ---
        svc!("Yahoo", WebPortal, 0.9, 2.0),
        svc!("Google Search", WebPortal, 9.0, 1.5),
        svc!("News Websites", WebPortal, 3.0, 2.0),
        svc!("Entertainment Websites", WebPortal, 2.0, 3.0),
        svc!("Sports Websites", WebPortal, 2.2, 3.0),
        svc!("Shopping Websites", WebPortal, 2.5, 2.5),
        // --- App stores (2) ---
        svc!("Google Play Store", AppStore, 3.5, 20.0),
        svc!("Apple App Store", AppStore, 3.0, 20.0),
        // --- Shopping apps (4) ---
        svc!("Amazon Shopping", Shopping, 3.5, 3.0),
        svc!("Vinted", Shopping, 2.0, 4.0),
        svc!("Leboncoin", Shopping, 2.2, 3.0),
        svc!("AliExpress", Shopping, 1.2, 3.5),
        // --- Gaming (5) ---
        svc!("Fortnite", Gaming, 1.5, 25.0),
        svc!("Roblox", Gaming, 1.3, 20.0),
        svc!("Clash Royale", Gaming, 1.0, 6.0),
        svc!("Candy Crush", Gaming, 1.4, 4.0),
        svc!("PlayStation Network", Gaming, 0.9, 15.0),
        // --- Cloud (4) ---
        svc!("iCloud", Cloud, 3.0, 10.0),
        svc!("Google Drive", Cloud, 2.5, 8.0),
        svc!("Dropbox", Cloud, 0.8, 8.0),
        svc!("OneDrive", Cloud, 1.2, 8.0),
        // --- Video calls (2) ---
        svc!("FaceTime", VideoCall, 2.0, 12.0),
        svc!("Google Meet", VideoCall, 1.2, 10.0),
        // --- Well-being (2) ---
        svc!("Strava", Wellbeing, 1.0, 3.0),
        svc!("Doctolib", Wellbeing, 1.2, 1.5),
        // --- News (3) ---
        svc!("Le Monde", News, 1.2, 2.0),
        svc!("BFMTV", News, 1.8, 5.0),
        svc!("Franceinfo", News, 1.3, 3.0),
        // --- Finance (3) ---
        svc!("Banking Apps", Finance, 3.0, 1.2),
        svc!("PayPal", Finance, 1.5, 1.0),
        svc!("Crypto Exchanges", Finance, 0.6, 1.5),
    ]
}

/// Looks up a service index by exact name.
pub fn index_of(services: &[Service], name: &str) -> Option<usize> {
    services.iter().position(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_73_services() {
        assert_eq!(catalog().len(), 73);
    }

    #[test]
    fn names_are_unique() {
        let c = catalog();
        let mut names: Vec<&str> = c.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 73);
    }

    #[test]
    fn all_paper_named_services_present() {
        let c = catalog();
        for name in [
            "Spotify",
            "SoundCloud",
            "Deezer",
            "Apple Music",
            "Mappy",
            "Google Maps",
            "Waze",
            "Transportation Websites",
            "Snapchat",
            "Twitter",
            "Sports Websites",
            "Giphy",
            "WhatsApp",
            "Canal+",
            "Netflix",
            "Disney+",
            "Amazon Prime Video",
            "Microsoft Teams",
            "LinkedIn",
            "Google Play Store",
            "Shopping Websites",
            "Yahoo",
            "Entertainment Websites",
        ] {
            assert!(index_of(&c, name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn parameters_are_positive() {
        for s in catalog() {
            assert!(s.popularity > 0.0, "{} popularity", s.name);
            assert!(s.volume_scale > 0.0, "{} volume", s.name);
        }
    }

    #[test]
    fn streaming_dwarfs_messaging_volume() {
        // The imbalance that motivates RCA: streaming per-engagement volume
        // is at least an order of magnitude above messaging.
        let c = catalog();
        let netflix = &c[index_of(&c, "Netflix").unwrap()];
        let whatsapp = &c[index_of(&c, "WhatsApp").unwrap()];
        assert!(netflix.volume_scale >= 10.0 * whatsapp.volume_scale);
    }

    #[test]
    fn every_category_represented() {
        let c = catalog();
        for cat in Category::ALL {
            assert!(
                c.iter().any(|s| s.category == cat),
                "no service in {:?}",
                cat
            );
        }
    }

    #[test]
    fn index_of_miss_is_none() {
        assert_eq!(index_of(&catalog(), "Nonexistent App"), None);
    }
}
