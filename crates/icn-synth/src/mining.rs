//! Antenna-name mining (Section 5.2.1).
//!
//! The paper derives the eleven environment types "by inspecting the names
//! of the antennas, applying simple string manipulation to extract keywords
//! appearing within the names". This module re-implements that step against
//! the generated site names: tokenise the name, look for an environment
//! keyword, and fall back to `Unknown` when none matches — exercising the
//! same extraction code path the authors describe, including the failure
//! mode of unparseable names (fault injection in tests).

use crate::environments::Environment;

/// Result of mining one antenna name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinedLabel {
    /// A recognised indoor environment.
    Env(Environment),
    /// No environment keyword found in the name.
    Unknown,
}

/// Extracts the environment from a site name by keyword matching.
///
/// Matching is case-insensitive and tolerant of `-`/`_`/space separators.
fn mine_environment(site_name: &str) -> MinedLabel {
    let upper = site_name.to_uppercase();
    let normalized: String = upper
        .chars()
        .map(|c| if c == '_' || c == ' ' { '-' } else { c })
        .collect();
    for env in Environment::ALL {
        for kw in env.name_keywords() {
            if contains_token(&normalized, kw) {
                return MinedLabel::Env(env);
            }
        }
    }
    MinedLabel::Unknown
}

/// True if `hay` contains `needle` as a `-`-delimited token sequence
/// (so `"GARE"` does not match `"MEGARE"` but does match `"LYON-GARE-01"`).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0 || hay.as_bytes()[abs - 1] == b'-';
        let after = abs + needle.len();
        let after_ok = after == hay.len() || hay.as_bytes()[after] == b'-';
        if before_ok && after_ok {
            return true;
        }
        start = abs + 1;
        if start >= hay.len() {
            break;
        }
    }
    false
}

/// Mines a whole population, returning per-antenna labels and the count of
/// unknowns (reported by the Table 1 harness as extraction coverage).
pub fn mine_all(names: &[String]) -> (Vec<MinedLabel>, usize) {
    let labels: Vec<MinedLabel> = names.iter().map(|n| mine_environment(n)).collect();
    let unknown = labels.iter().filter(|l| **l == MinedLabel::Unknown).count();
    (labels, unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antennas::generate_antennas;
    use icn_stats::check::cases;
    use icn_stats::Rng;

    #[test]
    fn recognises_generated_names() {
        let mut rng = Rng::seed_from(5);
        let ants = generate_antennas(0.05, &mut rng);
        for a in &ants {
            assert_eq!(
                mine_environment(&a.site_name),
                MinedLabel::Env(a.environment),
                "name {}",
                a.site_name
            );
        }
    }

    #[test]
    fn case_and_separator_insensitive() {
        assert_eq!(
            mine_environment("paris_metro_0001"),
            MinedLabel::Env(Environment::Metro)
        );
        assert_eq!(
            mine_environment("Lyon Gare Part-Dieu"),
            MinedLabel::Env(Environment::TrainStation)
        );
    }

    #[test]
    fn token_boundaries_respected() {
        // "MEGARE" must not match the GARE keyword.
        assert_eq!(mine_environment("FOO-MEGARE-01"), MinedLabel::Unknown);
        assert_eq!(
            mine_environment("FOO-GARE-01"),
            MinedLabel::Env(Environment::TrainStation)
        );
    }

    #[test]
    fn unparseable_names_are_unknown() {
        for bad in ["", "X", "SITE-12345", "ZONE-INDUSTRIELLE-NORD"] {
            assert_eq!(mine_environment(bad), MinedLabel::Unknown, "{bad}");
        }
    }

    #[test]
    fn mine_all_counts_unknowns() {
        let names = vec![
            "PARIS-METRO-0001".to_string(),
            "JUNK-SITE".to_string(),
            "OTHER-HOPITAL-0009".to_string(),
        ];
        let (labels, unknown) = mine_all(&names);
        assert_eq!(unknown, 1);
        assert_eq!(labels[0], MinedLabel::Env(Environment::Metro));
        assert_eq!(labels[2], MinedLabel::Env(Environment::Hospital));
    }

    #[test]
    fn first_keyword_wins_on_multi_match() {
        // METRO appears before GARE in the taxonomy scan order.
        assert_eq!(
            mine_environment("PARIS-METRO-GARE-DU-NORD"),
            MinedLabel::Env(Environment::Metro)
        );
    }

    #[test]
    fn mining_never_mislabels_generated_names() {
        cases(32, |case, rng| {
            let ants = generate_antennas(0.01, rng);
            for a in ants.iter().take(30) {
                assert_eq!(
                    mine_environment(&a.site_name),
                    MinedLabel::Env(a.environment),
                    "case {case}: {}",
                    a.site_name
                );
            }
        });
    }
}
