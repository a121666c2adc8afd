//! IP-session synthesis.
//!
//! The paper's feed is built from "each TCP and UDP session recorded by the
//! probes" (Section 3). This module turns an antenna-service-hour's
//! expected traffic volume into a stream of individual session records:
//! a Poisson number of sessions whose sizes follow a heavy-tailed
//! log-normal, split into downlink/uplink with a service-dependent ratio
//! and carried over TCP or UDP with a service-dependent mix (streaming is
//! QUIC/UDP-heavy, mail is TCP). Aggregating the records reproduces the
//! hourly volumes; tests assert the conservation.

use icn_stats::Rng;
use icn_synth::{Category, Service};

use crate::uli::{uli_for_antenna, Uli};

/// Transport protocol of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol (incl. QUIC).
    Udp,
}

/// One recorded IP session, as the probe would export it after GTP-C
/// correlation.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// ULI of the serving cell (geo-reference).
    pub uli: Uli,
    /// Service index assigned by DPI — here still the ground truth; the
    /// DPI classifier may relabel it.
    pub service: usize,
    /// Hour slot index within the observation window.
    pub hour: usize,
    /// Downlink bytes.
    pub bytes_down: u64,
    /// Uplink bytes.
    pub bytes_up: u64,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl SessionRecord {
    /// Total bytes both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

/// Mean session size (MB) by category — streaming sessions are large and
/// few, messaging sessions tiny and many.
fn mean_session_mb(cat: Category) -> f64 {
    match cat {
        Category::VideoStreaming => 60.0,
        Category::Music => 15.0,
        Category::AppStore => 40.0,
        Category::Gaming => 12.0,
        Category::Cloud => 25.0,
        Category::VideoCall => 30.0,
        Category::SocialMedia => 8.0,
        Category::Work => 10.0,
        Category::Messaging => 0.8,
        Category::Mail => 0.6,
        Category::Navigation => 1.5,
        Category::WebPortal => 2.0,
        Category::Shopping => 3.0,
        Category::Wellbeing => 1.5,
        Category::News => 2.5,
        Category::Finance => 0.5,
    }
}

/// Downlink fraction by category (uplink-heavy only for cloud sync and
/// video calls).
fn downlink_fraction(cat: Category) -> f64 {
    match cat {
        Category::Cloud => 0.45,
        Category::VideoCall => 0.55,
        Category::Messaging => 0.7,
        _ => 0.92,
    }
}

/// Probability that a session of this category runs over UDP/QUIC.
fn udp_probability(cat: Category) -> f64 {
    match cat {
        Category::VideoStreaming | Category::Music => 0.75,
        Category::VideoCall | Category::Gaming => 0.85,
        Category::SocialMedia | Category::WebPortal => 0.5,
        Category::Mail | Category::Finance | Category::Work => 0.1,
        _ => 0.3,
    }
}

/// Generates the session records of one antenna-service-hour whose total
/// volume is `volume_mb`. The number of sessions is Poisson with mean
/// `volume / mean_session_size`; individual sizes are log-normal and then
/// rescaled so the records sum exactly to `volume_mb` (the probe observes
/// actual bytes; our target volume is the ground truth being carried).
pub fn sessions_for_cell_hour(
    antenna_id: usize,
    service_idx: usize,
    service: &Service,
    hour: usize,
    volume_mb: f64,
    rng: &mut Rng,
) -> Vec<SessionRecord> {
    assert!(volume_mb >= 0.0, "sessions: negative volume");
    if volume_mb <= 0.0 {
        return Vec::new();
    }
    let mean_mb = mean_session_mb(service.category);
    let expected = (volume_mb / mean_mb).max(1e-9);
    let n = rng.poisson(expected).max(1) as usize;

    // Draw heavy-tailed sizes, then rescale to conserve the hour's bytes.
    let mut sizes: Vec<f64> = (0..n).map(|_| rng.lognormal(0.0, 1.0)).collect();
    let raw_total: f64 = sizes.iter().sum();
    for s in &mut sizes {
        *s = *s / raw_total * volume_mb;
    }

    let uli = uli_for_antenna(antenna_id);
    let dl_frac = downlink_fraction(service.category);
    let udp_p = udp_probability(service.category);
    sizes
        .into_iter()
        .map(|mb| {
            let bytes = (mb * 1_000_000.0).round().max(1.0) as u64;
            let down = (bytes as f64 * dl_frac).round() as u64;
            SessionRecord {
                uli,
                service: service_idx,
                hour,
                bytes_down: down,
                bytes_up: bytes - down,
                protocol: if rng.chance(udp_p) {
                    Protocol::Udp
                } else {
                    Protocol::Tcp
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_synth::services::{catalog, index_of};

    fn svc(name: &str) -> (usize, Service) {
        let c = catalog();
        let i = index_of(&c, name).unwrap();
        (i, c[i].clone())
    }

    #[test]
    fn bytes_conserved() {
        let (i, netflix) = svc("Netflix");
        let mut rng = Rng::seed_from(1);
        let recs = sessions_for_cell_hour(42, i, &netflix, 7, 500.0, &mut rng);
        let total: u64 = recs.iter().map(|r| r.bytes_total()).sum();
        let total_mb = total as f64 / 1e6;
        assert!(
            (total_mb - 500.0).abs() < 0.01,
            "total {total_mb} MB vs 500"
        );
    }

    #[test]
    fn zero_volume_zero_sessions() {
        let (i, s) = svc("Gmail");
        let mut rng = Rng::seed_from(2);
        assert!(sessions_for_cell_hour(0, i, &s, 0, 0.0, &mut rng).is_empty());
    }

    #[test]
    fn tiny_volume_still_one_session() {
        let (i, s) = svc("Gmail");
        let mut rng = Rng::seed_from(3);
        let recs = sessions_for_cell_hour(0, i, &s, 0, 1e-6, &mut rng);
        assert!(!recs.is_empty());
    }

    #[test]
    fn streaming_sessions_fewer_than_messaging() {
        let (i_nf, netflix) = svc("Netflix");
        let (i_wa, whatsapp) = svc("WhatsApp");
        let mut rng = Rng::seed_from(4);
        let nf = sessions_for_cell_hour(1, i_nf, &netflix, 0, 300.0, &mut rng);
        let wa = sessions_for_cell_hour(1, i_wa, &whatsapp, 0, 300.0, &mut rng);
        assert!(
            wa.len() > 5 * nf.len(),
            "whatsapp {} vs netflix {}",
            wa.len(),
            nf.len()
        );
    }

    #[test]
    fn protocol_mix_follows_category() {
        let (i, netflix) = svc("Netflix");
        let mut rng = Rng::seed_from(5);
        let recs = sessions_for_cell_hour(1, i, &netflix, 0, 5000.0, &mut rng);
        let udp = recs.iter().filter(|r| r.protocol == Protocol::Udp).count();
        let frac = udp as f64 / recs.len() as f64;
        assert!((frac - 0.75).abs() < 0.15, "udp fraction {frac}");
    }

    #[test]
    fn downlink_dominates_streaming() {
        let (i, netflix) = svc("Netflix");
        let mut rng = Rng::seed_from(6);
        let recs = sessions_for_cell_hour(1, i, &netflix, 0, 100.0, &mut rng);
        for r in recs {
            assert!(r.bytes_down > 5 * r.bytes_up);
        }
    }

    #[test]
    fn uli_matches_antenna() {
        let (i, s) = svc("Waze");
        let mut rng = Rng::seed_from(7);
        let recs = sessions_for_cell_hour(321, i, &s, 3, 10.0, &mut rng);
        for r in recs {
            assert_eq!(crate::uli::antenna_for_uli(r.uli, 1000), Some(321));
            assert_eq!(r.hour, 3);
        }
    }

    #[test]
    fn deterministic() {
        let (i, s) = svc("Spotify");
        let a = sessions_for_cell_hour(9, i, &s, 1, 50.0, &mut Rng::seed_from(8));
        let b = sessions_for_cell_hour(9, i, &s, 1, 50.0, &mut Rng::seed_from(8));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].bytes_down, b[0].bytes_down);
    }
}
