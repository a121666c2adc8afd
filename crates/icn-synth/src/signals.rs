//! Planted-signal ground truth: which hours of the analysis window carry a
//! deliberately injected anomaly.
//!
//! The generator plants three families of temporal one-offs — the 19 Jan
//! strike collapse, per-site stadium/expo event bursts, and holiday dips —
//! on top of each archetype's *seasonal* template (hour-of-day ×
//! day-of-week structure that repeats every week). All three are calendar
//! data, so this module labels them exactly by dividing the planted
//! template weight by the weight on the same window
//! [`StudyCalendar::without_signals`] (the counterfactual): an hour is a
//! **burst** when the planted weight is at least [`BURST_MIN_RATIO`] times
//! the counterfactual, a **dip** when it is at most [`DIP_MAX_RATIO`] of
//! it.
//!
//! This is the known-signal oracle the forecasting/anomaly subsystem is
//! tested against: `icn-forecast`'s detector sees only the noisy series and
//! must recover these hour sets unsupervised.

use crate::antennas::Antenna;
use crate::calendar::StudyCalendar;
use crate::temporal::template_weight;
use crate::traffic::event_schedule;
use icn_stats::Rng;

/// Minimum planted/counterfactual weight ratio for an hour to count as a
/// planted burst. Event boosts multiply the base by 4–17×, so 2.0 cleanly
/// separates them from seasonal structure (ratio exactly 1 off-signal).
pub const BURST_MIN_RATIO: f64 = 2.0;

/// Maximum planted/counterfactual weight ratio for a planted dip. Captures
/// every strike factor the generator uses (0.05–0.6) and the holiday
/// factors (0.1–0.8 — none fall inside the 21-day temporal window).
pub const DIP_MAX_RATIO: f64 = 0.7;

/// The planted anomalous hours of one antenna or one cluster, as indices
/// into the window's hour axis (`day_index * 24 + hour`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlantedHours {
    /// Hours where planted traffic exceeds the counterfactual by
    /// [`BURST_MIN_RATIO`] (event nights, expo days).
    pub bursts: Vec<usize>,
    /// Hours where planted traffic falls below [`DIP_MAX_RATIO`] of the
    /// counterfactual (strike collapse, holidays).
    pub dips: Vec<usize>,
}

impl PlantedHours {
    /// True when no hour is labelled in either direction.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty() && self.dips.is_empty()
    }

    /// Sorted union of burst and dip hours.
    pub fn hours(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.bursts.iter().chain(&self.dips).copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Labels the planted hours of a single antenna over `window`.
///
/// Deterministic given `root` (the dataset root RNG): the event schedule is
/// re-derived through the same per-site fork the traffic generator uses, so
/// the labels refer to exactly the events present in the synthesized
/// series.
pub fn antenna_planted_hours(
    antenna: &Antenna,
    window: &StudyCalendar,
    root: &Rng,
) -> PlantedHours {
    let kind = antenna.archetype.template();
    let control = window.without_signals();
    let schedule = event_schedule(antenna, window, root);
    let no_events = event_schedule(antenna, &control, root);
    let mut out = PlantedHours::default();
    for (di, date) in window.iter_days() {
        for hour in 0..24 {
            let planted = template_weight(kind, &schedule, window, date, di, hour);
            let counter = template_weight(kind, &no_events, &control, date, di, hour);
            debug_assert!(counter > 0.0, "counterfactual weight must be positive");
            let ratio = planted / counter;
            let t = di * 24 + hour;
            if ratio >= BURST_MIN_RATIO {
                out.bursts.push(t);
            } else if ratio <= DIP_MAX_RATIO {
                out.dips.push(t);
            }
        }
    }
    out
}

/// Cluster-level labels: an hour counts as planted when a strict majority
/// of the member antennas plant it in the same direction.
///
/// The cluster series analysed downstream is a cross-antenna median, so an
/// event burst at a minority of sites (stadium fixtures differ per site)
/// does not survive aggregation — and must not be labelled — while the
/// strike (shared by every commuter antenna) and the pinned NBA/expo nights
/// (shared per city) do.
pub fn cluster_planted_hours(
    members: &[&Antenna],
    window: &StudyCalendar,
    root: &Rng,
) -> PlantedHours {
    let n = members.len();
    if n == 0 {
        return PlantedHours::default();
    }
    let hours = window.num_hours();
    let mut burst_votes = vec![0usize; hours];
    let mut dip_votes = vec![0usize; hours];
    for a in members {
        let labels = antenna_planted_hours(a, window, root);
        for t in labels.bursts {
            burst_votes[t] += 1;
        }
        for t in labels.dips {
            dip_votes[t] += 1;
        }
    }
    let mut out = PlantedHours::default();
    for t in 0..hours {
        if burst_votes[t] * 2 > n {
            out.bursts.push(t);
        } else if dip_votes[t] * 2 > n {
            out.dips.push(t);
        }
    }
    out
}

/// Union labels: an hour counts as planted when *any* member antenna
/// plants it.
///
/// This is the permissive counterpart of [`cluster_planted_hours`]: a
/// sub-majority fixture (one stadium of several) does not *have* to
/// survive the cross-antenna median, but when it is strong enough to
/// move it, flagging that hour is not a false alarm — the traffic shift
/// is real and planted. Detector scoring therefore uses the majority
/// labels for recall (population-wide signals must all be found) and
/// these union labels for precision (every flag must trace back to a
/// planted signal).
pub fn cluster_planted_hours_any(
    members: &[&Antenna],
    window: &StudyCalendar,
    root: &Rng,
) -> PlantedHours {
    let hours = window.num_hours();
    let mut burst = vec![false; hours];
    let mut dip = vec![false; hours];
    for a in members {
        let labels = antenna_planted_hours(a, window, root);
        for t in labels.bursts {
            burst[t] = true;
        }
        for t in labels.dips {
            dip[t] = true;
        }
    }
    let collect = |mask: &[bool]| -> Vec<usize> {
        mask.iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(t, _)| t)
            .collect()
    };
    PlantedHours {
        bursts: collect(&burst),
        dips: collect(&dip),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antennas::generate_antennas;
    use crate::archetypes::Archetype;
    use crate::calendar::Date;

    fn pop() -> (Vec<Antenna>, Rng) {
        let mut rng = Rng::seed_from(123);
        let ants = generate_antennas(0.05, &mut rng);
        (ants, Rng::seed_from(123))
    }

    #[test]
    fn metro_labels_exactly_the_strike_day_as_dips() {
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisMetro)
            .unwrap();
        let labels = antenna_planted_hours(a, &cal, &root);
        assert!(labels.bursts.is_empty());
        let expected: Vec<usize> = (0..24).map(|h| strike * 24 + h).collect();
        assert_eq!(labels.dips, expected);
    }

    #[test]
    fn general_use_has_no_planted_hours() {
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::GeneralUse)
            .unwrap();
        assert!(antenna_planted_hours(a, &cal, &root).is_empty());
    }

    #[test]
    fn paris_arena_bursts_cover_the_nba_night() {
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        let a = ants
            .iter()
            .find(|a| {
                a.archetype == Archetype::ParisArena && a.city == crate::environments::City::Paris
            })
            .unwrap();
        let labels = antenna_planted_hours(a, &cal, &root);
        for h in 19..=23 {
            assert!(labels.bursts.contains(&(strike * 24 + h)), "hour {h}");
        }
    }

    #[test]
    fn office_strike_dip_is_labelled() {
        // Office strike factor is 0.6 ≤ DIP_MAX_RATIO: working hours on
        // the strike day must be labelled, idle night hours are unaffected
        // by the day factor... but the ratio applies uniformly, so all 24
        // hours carry the 0.6 ratio.
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::Workspace)
            .unwrap();
        let labels = antenna_planted_hours(a, &cal, &root);
        assert!(labels.dips.contains(&(strike * 24 + 10)));
    }

    #[test]
    fn cluster_majority_keeps_shared_signals_only() {
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        let metros: Vec<&Antenna> = ants
            .iter()
            .filter(|a| a.archetype == Archetype::ParisMetro)
            .collect();
        assert!(metros.len() >= 3);
        let labels = cluster_planted_hours(&metros, &cal, &root);
        assert!(labels.bursts.is_empty());
        assert!(labels.dips.contains(&(strike * 24 + 8)));
        // Every labelled dip is on the strike day (no holidays in-window).
        assert!(labels.dips.iter().all(|t| t / 24 == strike));
    }

    #[test]
    fn cluster_of_signal_free_antennas_is_empty() {
        let (ants, root) = pop();
        let cal = StudyCalendar::temporal_window();
        let general: Vec<&Antenna> = ants
            .iter()
            .filter(|a| a.archetype == Archetype::GeneralUse)
            .collect();
        assert!(cluster_planted_hours(&general, &cal, &root).is_empty());
    }

    #[test]
    fn empty_cluster_is_empty() {
        let (_, root) = pop();
        let cal = StudyCalendar::temporal_window();
        assert!(cluster_planted_hours(&[], &cal, &root).is_empty());
    }

    #[test]
    fn no_holidays_inside_temporal_window() {
        // The dip thresholds assume the only in-window calendar anomaly is
        // the strike; pin that so a future window change is caught here.
        let cal = StudyCalendar::temporal_window();
        for (_, d) in cal.iter_days() {
            assert!(!StudyCalendar::is_holiday(d), "{}", d.iso());
        }
        assert!(cal.day_index(Date::new(2023, 1, 19)).is_some());
    }
}
