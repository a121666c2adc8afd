//! Deep-packet-inspection service classification.
//!
//! The operator "identifies the mobile service associated with each TCP and
//! UDP session ... by running Deep Packet Inspection and analyzing the
//! results via proprietary traffic classifiers" (Section 3). Real DPI is
//! imperfect: encrypted flows of similar services get confused, and some
//! flows stay unlabelled. This module models a classifier with a
//! configurable confusion structure — misclassification prefers services of
//! the *same category* (a Netflix flow misread as Disney+ is far more
//! likely than as Gmail) — plus an unclassified fraction, and reports the
//! realised confusion statistics for calibration tests.

use icn_stats::Rng;
use icn_synth::Service;

/// The DPI label assigned to one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpiLabel {
    /// Classified as the service with this catalog index.
    Service(usize),
    /// The classifier could not attribute the flow.
    Unclassified,
}

/// Classifier error model.
#[derive(Clone, Copy, Debug)]
pub struct DpiConfig {
    /// Probability a session is misclassified (assigned a wrong label).
    pub confusion_rate: f64,
    /// Given a misclassification, probability the wrong label is at least
    /// in the correct category.
    pub within_category: f64,
    /// Probability a session gets no label at all.
    pub unclassified_rate: f64,
}

impl Default for DpiConfig {
    fn default() -> Self {
        DpiConfig {
            confusion_rate: 0.03,
            within_category: 0.8,
            unclassified_rate: 0.01,
        }
    }
}

impl DpiConfig {
    /// A perfect classifier (used to verify exact aggregation).
    pub fn perfect() -> Self {
        DpiConfig {
            confusion_rate: 0.0,
            within_category: 1.0,
            unclassified_rate: 0.0,
        }
    }
}

/// A DPI classifier over a service catalog.
pub(crate) struct DpiClassifier<'a> {
    services: &'a [Service],
    config: DpiConfig,
    /// For each service, the indices of other services in its category.
    same_category: Vec<Vec<usize>>,
}

impl<'a> DpiClassifier<'a> {
    /// Builds the classifier for a catalog.
    pub(crate) fn new(services: &'a [Service], config: DpiConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.confusion_rate)
                && (0.0..=1.0).contains(&config.within_category)
                && (0.0..=1.0).contains(&config.unclassified_rate),
            "DpiConfig: rates out of [0,1]"
        );
        let same_category = services
            .iter()
            .enumerate()
            .map(|(i, s)| {
                services
                    .iter()
                    .enumerate()
                    .filter(|(j, t)| *j != i && t.category == s.category)
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        DpiClassifier {
            services,
            config,
            same_category,
        }
    }

    /// Classifies one session whose ground-truth service is `truth`.
    pub(crate) fn classify(&self, truth: usize, rng: &mut Rng) -> DpiLabel {
        assert!(truth < self.services.len(), "classify: bad service index");
        if rng.chance(self.config.unclassified_rate) {
            return DpiLabel::Unclassified;
        }
        if !rng.chance(self.config.confusion_rate) {
            return DpiLabel::Service(truth);
        }
        // Misclassified: same category with probability `within_category`,
        // uniformly wrong otherwise.
        let peers = &self.same_category[truth];
        if !peers.is_empty() && rng.chance(self.config.within_category) {
            DpiLabel::Service(peers[rng.index(peers.len())])
        } else {
            // Uniform over all other services.
            let mut j = rng.index(self.services.len() - 1);
            if j >= truth {
                j += 1;
            }
            DpiLabel::Service(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::check::cases;
    use icn_synth::services::{catalog, index_of};

    #[test]
    fn perfect_classifier_is_identity() {
        let c = catalog();
        let dpi = DpiClassifier::new(&c, DpiConfig::perfect());
        let mut rng = Rng::seed_from(1);
        for truth in 0..c.len() {
            assert_eq!(dpi.classify(truth, &mut rng), DpiLabel::Service(truth));
        }
    }

    #[test]
    fn confusion_rate_is_calibrated() {
        let c = catalog();
        let cfg = DpiConfig {
            confusion_rate: 0.2,
            within_category: 1.0,
            unclassified_rate: 0.0,
        };
        let dpi = DpiClassifier::new(&c, cfg);
        let mut rng = Rng::seed_from(2);
        let truth = index_of(&c, "Netflix").unwrap();
        let n = 50_000;
        let wrong = (0..n)
            .filter(|_| dpi.classify(truth, &mut rng) != DpiLabel::Service(truth))
            .count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn confusion_prefers_same_category() {
        let c = catalog();
        let cfg = DpiConfig {
            confusion_rate: 1.0, // always wrong, to observe the structure
            within_category: 0.8,
            unclassified_rate: 0.0,
        };
        let dpi = DpiClassifier::new(&c, cfg);
        let mut rng = Rng::seed_from(3);
        let truth = index_of(&c, "Netflix").unwrap();
        let n = 20_000;
        let mut same_cat = 0usize;
        for _ in 0..n {
            if let DpiLabel::Service(j) = dpi.classify(truth, &mut rng) {
                assert_ne!(j, truth, "confusion_rate 1.0 must always relabel");
                if c[j].category == c[truth].category {
                    same_cat += 1;
                }
            }
        }
        let frac = same_cat as f64 / n as f64;
        // 0.8 within-category plus the chance hits of the uniform branch.
        assert!(frac > 0.78, "same-category fraction {frac}");
    }

    #[test]
    fn unclassified_rate_observed() {
        let c = catalog();
        let cfg = DpiConfig {
            confusion_rate: 0.0,
            within_category: 1.0,
            unclassified_rate: 0.1,
        };
        let dpi = DpiClassifier::new(&c, cfg);
        let mut rng = Rng::seed_from(4);
        let n = 50_000;
        let unlabeled = (0..n)
            .filter(|_| dpi.classify(0, &mut rng) == DpiLabel::Unclassified)
            .count();
        let rate = unlabeled as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "rates out of")]
    fn invalid_config_panics() {
        let c = catalog();
        DpiClassifier::new(
            &c,
            DpiConfig {
                confusion_rate: 1.5,
                within_category: 1.0,
                unclassified_rate: 0.0,
            },
        );
    }

    #[test]
    fn classifier_rates_bounded() {
        cases(64, |case, rng| {
            let confusion = rng.uniform(0.0, 1.0);
            let unclassified = rng.uniform(0.0, 0.5);
            let services = catalog();
            let dpi = DpiClassifier::new(
                &services,
                DpiConfig {
                    confusion_rate: confusion,
                    within_category: 0.8,
                    unclassified_rate: unclassified,
                },
            );
            for truth in (0..73).step_by(11) {
                match dpi.classify(truth, rng) {
                    DpiLabel::Service(s) => assert!(s < 73, "case {case}"),
                    DpiLabel::Unclassified => {}
                }
            }
        });
    }

    #[test]
    fn zero_confusion_is_identity() {
        cases(64, |case, rng| {
            let services = catalog();
            let dpi = DpiClassifier::new(&services, DpiConfig::perfect());
            for truth in 0..73 {
                assert_eq!(
                    dpi.classify(truth, rng),
                    DpiLabel::Service(truth),
                    "case {case}"
                );
            }
        });
    }
}
