//! Temporal traffic templates.
//!
//! Section 6 of the paper shows that each cluster carries a distinctive
//! hour-of-day × day-of-week signature: commute bimodality for the orange
//! group (with a collapse on the 19 January strike day), sporadic event
//! bursts for the green group (an NBA night at the Accor Arena; a 4-day expo
//! at Eurexpo Lyon), and diurnal 10:00–20:00 activity for the red group
//! (with workspaces idle on weekends). This module implements those shapes
//! as deterministic weight functions plus per-site event schedules, and the
//! per-service modulations of Figure 11 (Spotify at morning commute, Waze
//! lagging event peaks, Netflix at hotel nights / office lunches, Teams in
//! office hours).
//!
//! All weights are relative; the traffic generator normalises each
//! antenna-service series so that it integrates to the antenna-service
//! total, keeping the totals matrix and the hourly series consistent.

use crate::calendar::{Date, StudyCalendar, Weekday};
use crate::services::{Category, Service};
use icn_stats::Rng;

/// The family of hour-weight shapes an archetype follows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TemplateKind {
    /// Bimodal commuter peaks (07:00–09:00, 17:00–19:00 strongest), low
    /// weekends, with traffic multiplied by `strike_factor` on the national
    /// strike day.
    Commute {
        /// Multiplier applied on 2023-01-19 (≈0 for Paris transit).
        strike_factor: f64,
    },
    /// Near-silent base with strong evening bursts on scheduled event days.
    EventBurst,
    /// Low flat diurnal base with occasional multi-day expo elevations.
    QuietWithExpo,
    /// Broad diurnal activity, seven days a week (airports, tunnels).
    BroadDiurnal,
    /// Retail hours (10:00–20:00) every day, Sunday dip, raised night floor
    /// (hotels & hospitals).
    Retail,
    /// Office hours (08:00–18:00) on weekdays, idle weekends and evenings.
    Office,
}

/// A scheduled high-attendance event at a venue site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Event {
    /// First day (index into the study calendar).
    pub start_day: usize,
    /// Number of consecutive days (1 for a match night, 4 for an expo).
    pub duration_days: usize,
    /// Peak multiplier applied during active hours.
    pub intensity: f64,
    /// First active hour of day (inclusive).
    pub start_hour: usize,
    /// Last active hour of day (inclusive).
    pub end_hour: usize,
}

impl Event {
    /// True if the event is live at (`day`, `hour`).
    pub(crate) fn active(&self, day: usize, hour: usize) -> bool {
        day >= self.start_day
            && day < self.start_day + self.duration_days
            && hour >= self.start_hour
            && hour <= self.end_hour
    }
}

/// Per-site event schedule for venue archetypes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventSchedule {
    events: Vec<Event>,
}

impl EventSchedule {
    /// Empty schedule (non-venue archetypes).
    pub(crate) fn none() -> Self {
        EventSchedule { events: Vec::new() }
    }

    /// Draws a stadium-style schedule: 3–6 single-evening events over the
    /// calendar, optionally pinning one to the paper's NBA night
    /// (19 Jan 2023, evening, Accor Arena — used for Paris arenas).
    ///
    /// Match nights concentrate on weekends (league fixtures), so different
    /// stadium sites mostly burst on the *same* evenings — which is what
    /// makes the bursts survive the cross-antenna median of Figure 10e/f.
    pub(crate) fn stadium(rng: &mut Rng, cal: &StudyCalendar, pin_nba_night: bool) -> Self {
        let weekend_days: Vec<usize> = cal
            .iter_days()
            .filter(|(_, d)| d.weekday().is_weekend())
            .map(|(i, _)| i)
            .collect();
        let mut events = Vec::new();
        let n = 3 + rng.index(4); // 3..=6
        for _ in 0..n {
            let day = if !weekend_days.is_empty() && rng.chance(0.75) {
                weekend_days[rng.index(weekend_days.len())]
            } else {
                rng.index(cal.num_days())
            };
            events.push(Event {
                start_day: day,
                duration_days: 1,
                intensity: rng.uniform(6.0, 14.0),
                start_hour: 18,
                end_hour: 23,
            });
        }
        if pin_nba_night {
            if let Some(day) = cal.day_index(StudyCalendar::strike_day()) {
                events.push(Event {
                    start_day: day,
                    duration_days: 1,
                    intensity: 16.0,
                    start_hour: 19,
                    end_hour: 23,
                });
            }
        }
        EventSchedule { events }
    }

    /// Draws an expo-style schedule: one or two multi-day fairs, optionally
    /// pinning the paper's Sirha Lyon 4-day event starting 19 Jan 2023.
    pub(crate) fn expo(rng: &mut Rng, cal: &StudyCalendar, pin_sirha_lyon: bool) -> Self {
        let mut events = Vec::new();
        let n = 1 + rng.index(2);
        for _ in 0..n {
            let dur = 2 + rng.index(3); // 2..=4 days
            if cal.num_days() <= dur {
                continue;
            }
            let day = rng.index(cal.num_days() - dur);
            events.push(Event {
                start_day: day,
                duration_days: dur,
                intensity: rng.uniform(3.0, 6.0),
                start_hour: 9,
                end_hour: 21,
            });
        }
        if pin_sirha_lyon {
            if let Some(day) = cal.day_index(StudyCalendar::strike_day()) {
                let dur = (cal.num_days() - day).clamp(1, 4);
                events.push(Event {
                    start_day: day,
                    duration_days: dur,
                    intensity: 5.5,
                    start_hour: 9,
                    end_hour: 21,
                });
            }
        }
        EventSchedule { events }
    }

    /// Peak event multiplier live at (`day`, `hour`), or 0.0 if none.
    fn boost(&self, day: usize, hour: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active(day, hour))
            .map(|e| e.intensity)
            .fold(0.0, f64::max)
    }

    /// Like [`EventSchedule::boost`] but at a later hour — used for the
    /// Waze-lags-the-event effect of Figure 11e (attendees navigating home
    /// a couple of hours after the peak).
    fn boost_lagged(&self, day: usize, hour: usize, lag: usize) -> f64 {
        if hour < lag {
            return 0.0;
        }
        self.boost(day, hour - lag)
    }
}

/// Base hour-of-day weight for each template (before calendar effects).
fn hour_shape(kind: TemplateKind, hour: usize) -> f64 {
    debug_assert!(hour < 24);
    match kind {
        TemplateKind::Commute { .. } => match hour {
            7..=9 => 1.0,
            17..=19 => 0.95,
            10..=16 => 0.35,
            6 | 20 | 21 => 0.3,
            22 | 23 => 0.15,
            _ => 0.04,
        },
        TemplateKind::EventBurst => match hour {
            8..=23 => 0.05,
            _ => 0.02,
        },
        TemplateKind::QuietWithExpo => match hour {
            9..=21 => 0.3,
            7 | 8 | 22 => 0.15,
            _ => 0.05,
        },
        TemplateKind::BroadDiurnal => match hour {
            10..=20 => 1.0,
            8 | 9 | 21 | 22 => 0.7,
            6 | 7 | 23 => 0.4,
            _ => 0.2,
        },
        TemplateKind::Retail => match hour {
            10..=19 => 1.0,
            20 => 0.6,
            8 | 9 => 0.4,
            21 | 22 => 0.35,
            _ => 0.22, // raised night floor: hotels & hospitals
        },
        TemplateKind::Office => match hour {
            9..=12 => 1.0,
            13 => 0.8, // lunch dip
            14..=17 => 1.0,
            8 => 0.7,
            18 => 0.45,
            19 => 0.2,
            _ => 0.03,
        },
    }
}

/// Calendar multiplier for a template on a given date of `cal`. A calendar
/// [`StudyCalendar::without_signals`] plants neither the strike nor the
/// holidays, leaving only the weekly structure.
fn day_factor(kind: TemplateKind, cal: &StudyCalendar, date: Date) -> f64 {
    let wd = date.weekday();
    let strike = cal.has_signals() && date == StudyCalendar::strike_day();
    let holiday = cal.has_signals() && StudyCalendar::is_holiday(date);
    match kind {
        TemplateKind::Commute { strike_factor } => {
            if strike {
                strike_factor
            } else if holiday {
                0.15
            } else if wd.is_weekend() {
                0.25
            } else {
                1.0
            }
        }
        TemplateKind::EventBurst | TemplateKind::QuietWithExpo => {
            // Venue base load is already tiny; weekends no different.
            if holiday {
                0.7
            } else {
                1.0
            }
        }
        TemplateKind::BroadDiurnal => {
            if holiday {
                0.8
            } else {
                1.0
            }
        }
        TemplateKind::Retail => {
            if holiday {
                0.5
            } else if wd == Weekday::Sun {
                0.6 // §6: cluster 2's slight Sunday drop
            } else {
                1.0
            }
        }
        TemplateKind::Office => {
            if strike {
                0.6
            } else if holiday {
                0.1
            } else if wd.is_weekend() {
                0.06
            } else {
                1.0
            }
        }
    }
}

/// Total template weight at (`date`, `hour`) of `cal` including the site's
/// events; `date` is `cal.date(day_index)`.
///
/// This is the hourly *shape* of an antenna's aggregate traffic; it is
/// normalised by the generator so its integral matches the antenna total.
/// On a calendar [`StudyCalendar::without_signals`] (whose schedules are
/// empty) it is the seasonal template alone.
pub(crate) fn template_weight(
    kind: TemplateKind,
    schedule: &EventSchedule,
    cal: &StudyCalendar,
    date: Date,
    day_index: usize,
    hour: usize,
) -> f64 {
    let base = hour_shape(kind, hour) * day_factor(kind, cal, date);
    let boost = schedule.boost(day_index, hour);
    // Events add on top of (tiny) base: a venue goes from near-0 to peak.
    base * (1.0 + boost) + boost * 0.05
}

/// Per-service temporal modulation (Figure 11 effects): how a service's
/// share of an antenna's traffic varies with the hour, relative to the
/// aggregate template.
///
/// Returns a multiplicative factor around 1.0.
pub(crate) fn service_modulation(
    kind: TemplateKind,
    schedule: &EventSchedule,
    svc: &Service,
    date: Date,
    day_index: usize,
    hour: usize,
) -> f64 {
    let wd = date.weekday();
    match kind {
        TemplateKind::Commute { .. } => match svc.category {
            // Spotify peaks during the *morning* commute (Fig. 11a).
            Category::Music if (7..=9).contains(&hour) => 1.6,
            Category::Navigation => {
                if (7..=9).contains(&hour) || (17..=19).contains(&hour) {
                    1.5
                } else {
                    0.8
                }
            }
            Category::News if (7..=9).contains(&hour) => 1.5,
            _ => 1.0,
        },
        TemplateKind::EventBurst => {
            // Social media tracks the event itself (Fig. 11f)...
            if svc.category == Category::SocialMedia {
                if schedule.boost(day_index, hour) > 0.0 {
                    1.8
                } else {
                    0.8
                }
            } else if svc.name == "Waze" {
                // ...while Waze lags it by ~2 h (Fig. 11e).
                if schedule.boost_lagged(day_index, hour, 2) > 0.0 {
                    3.0
                } else {
                    0.6
                }
            } else if svc.category == Category::VideoStreaming {
                // Netflix under-utilised even at peak hours (Fig. 11d).
                0.5
            } else {
                1.0
            }
        }
        TemplateKind::QuietWithExpo => 1.0,
        TemplateKind::BroadDiurnal => {
            if svc.name == "Waze" {
                // Fig. 11i: cluster-1 Waze peaks mostly on Saturdays.
                if wd == Weekday::Sat {
                    2.2
                } else {
                    1.0
                }
            } else if svc.category == Category::VideoStreaming {
                // Daytime streaming (Fig. 11h, cluster 1).
                if (10..=20).contains(&hour) {
                    1.3
                } else {
                    0.8
                }
            } else {
                1.0
            }
        }
        TemplateKind::Retail => {
            if svc.category == Category::VideoStreaming {
                // Fig. 11h: cluster 2's hotels stream at night.
                if hour >= 21 || hour <= 1 {
                    2.2
                } else {
                    0.9
                }
            } else if svc.category == Category::AppStore {
                if (10..=19).contains(&hour) {
                    1.4
                } else {
                    0.8
                }
            } else {
                1.0
            }
        }
        TemplateKind::Office => {
            if svc.category == Category::Work || svc.category == Category::Mail {
                // Fig. 11g: Teams heavy over working hours incl. lunch.
                if (8..=18).contains(&hour) && !wd.is_weekend() {
                    1.4
                } else {
                    0.3
                }
            } else if svc.category == Category::VideoStreaming {
                // Fig. 11h: streaming only at lunch break in offices.
                if (12..=13).contains(&hour) {
                    2.5
                } else {
                    0.3
                }
            } else if svc.name == "Waze" {
                // Fig. 11i: office Waze after work hours on weekdays.
                if (17..=19).contains(&hour) && !wd.is_weekend() {
                    2.5
                } else {
                    0.5
                }
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{catalog, index_of};

    fn cal() -> StudyCalendar {
        StudyCalendar::temporal_window()
    }

    #[test]
    fn commute_is_bimodal_on_weekdays() {
        let kind = TemplateKind::Commute {
            strike_factor: 0.05,
        };
        let sched = EventSchedule::none();
        let cal = cal();
        // 2023-01-09 is a Monday.
        let d = Date::new(2023, 1, 9);
        let i = cal.day_index(d).unwrap();
        let am = template_weight(kind, &sched, &cal, d, i, 8);
        let noon = template_weight(kind, &sched, &cal, d, i, 13);
        let pm = template_weight(kind, &sched, &cal, d, i, 18);
        let night = template_weight(kind, &sched, &cal, d, i, 3);
        assert!(am > 2.0 * noon);
        assert!(pm > 2.0 * noon);
        assert!(noon > 2.0 * night);
    }

    #[test]
    fn commute_collapses_on_strike_and_weekend() {
        let kind = TemplateKind::Commute {
            strike_factor: 0.05,
        };
        let sched = EventSchedule::none();
        let cal = cal();
        let strike = StudyCalendar::strike_day();
        let mon = Date::new(2023, 1, 9);
        let sat = Date::new(2023, 1, 7);
        let w_strike = template_weight(
            kind,
            &sched,
            &cal,
            strike,
            cal.day_index(strike).unwrap(),
            8,
        );
        let w_mon = template_weight(kind, &sched, &cal, mon, cal.day_index(mon).unwrap(), 8);
        let w_sat = template_weight(kind, &sched, &cal, sat, cal.day_index(sat).unwrap(), 8);
        assert!(w_strike < 0.1 * w_mon, "strike {w_strike} vs {w_mon}");
        assert!(w_sat < 0.3 * w_mon);
    }

    #[test]
    fn provincial_strike_is_milder() {
        let paris = TemplateKind::Commute {
            strike_factor: 0.05,
        };
        let prov = TemplateKind::Commute {
            strike_factor: 0.45,
        };
        let sched = EventSchedule::none();
        let cal = cal();
        let strike = StudyCalendar::strike_day();
        let i = cal.day_index(strike).unwrap();
        let wp = template_weight(paris, &sched, &cal, strike, i, 8);
        let wv = template_weight(prov, &sched, &cal, strike, i, 8);
        assert!(wv > 4.0 * wp);
    }

    #[test]
    fn event_burst_dominates_base() {
        let kind = TemplateKind::EventBurst;
        let mut rng = Rng::seed_from(2);
        let cal = cal();
        let sched = EventSchedule::stadium(&mut rng, &cal, true);
        let strike = StudyCalendar::strike_day();
        let i = cal.day_index(strike).unwrap();
        let peak = template_weight(kind, &sched, &cal, strike, i, 21);
        // A quiet morning two days earlier.
        let q = cal.date(i - 2);
        let quiet = template_weight(kind, &sched, &cal, q, i - 2, 10);
        assert!(peak > 10.0 * quiet, "peak {peak} quiet {quiet}");
    }

    #[test]
    fn expo_pins_multiday_event() {
        let mut rng = Rng::seed_from(3);
        let cal = cal();
        let sched = EventSchedule::expo(&mut rng, &cal, true);
        let start = cal.day_index(StudyCalendar::strike_day()).unwrap();
        // Active through the following days at midday.
        for d in start..(start + 4).min(cal.num_days()) {
            assert!(sched.boost(d, 12) > 0.0, "day {d}");
        }
    }

    #[test]
    fn office_idle_weekends() {
        let kind = TemplateKind::Office;
        let sched = EventSchedule::none();
        let cal = cal();
        let mon = Date::new(2023, 1, 9);
        let sat = Date::new(2023, 1, 7);
        let w_mon = template_weight(kind, &sched, &cal, mon, cal.day_index(mon).unwrap(), 11);
        let w_sat = template_weight(kind, &sched, &cal, sat, cal.day_index(sat).unwrap(), 11);
        assert!(w_sat < 0.1 * w_mon);
    }

    #[test]
    fn retail_sunday_dip_and_night_floor() {
        let kind = TemplateKind::Retail;
        let sched = EventSchedule::none();
        let cal = cal();
        let sun = Date::new(2023, 1, 8);
        let mon = Date::new(2023, 1, 9);
        let w_sun = template_weight(kind, &sched, &cal, sun, cal.day_index(sun).unwrap(), 14);
        let w_mon = template_weight(kind, &sched, &cal, mon, cal.day_index(mon).unwrap(), 14);
        assert!(w_sun < w_mon);
        // Night floor above office night.
        let w_night_retail =
            template_weight(kind, &sched, &cal, mon, cal.day_index(mon).unwrap(), 3);
        let w_night_office = template_weight(
            TemplateKind::Office,
            &sched,
            &cal,
            mon,
            cal.day_index(mon).unwrap(),
            3,
        );
        assert!(w_night_retail > 3.0 * w_night_office);
    }

    #[test]
    fn waze_lags_event_peak() {
        let mut rng = Rng::seed_from(5);
        let cal = cal();
        let sched = EventSchedule::stadium(&mut rng, &cal, true);
        let c = catalog();
        let waze = &c[index_of(&c, "Waze").unwrap()];
        let snap = &c[index_of(&c, "Snapchat").unwrap()];
        let strike = StudyCalendar::strike_day();
        let i = cal.day_index(strike).unwrap();
        // At the event start hour 19, Snapchat is boosted, Waze is not yet.
        let m_snap_19 = service_modulation(TemplateKind::EventBurst, &sched, snap, strike, i, 19);
        let m_waze_19 = service_modulation(TemplateKind::EventBurst, &sched, waze, strike, i, 19);
        // Two hours later Waze picks up.
        let m_waze_21 = service_modulation(TemplateKind::EventBurst, &sched, waze, strike, i, 21);
        assert!(m_snap_19 > 1.5);
        assert!(m_waze_21 > m_waze_19);
    }

    #[test]
    fn office_netflix_only_at_lunch() {
        let sched = EventSchedule::none();
        let cal = cal();
        let c = catalog();
        let netflix = &c[index_of(&c, "Netflix").unwrap()];
        let mon = Date::new(2023, 1, 9);
        let i = cal.day_index(mon).unwrap();
        let lunch = service_modulation(TemplateKind::Office, &sched, netflix, mon, i, 12);
        let aft = service_modulation(TemplateKind::Office, &sched, netflix, mon, i, 16);
        assert!(lunch > 5.0 * aft);
    }

    #[test]
    fn hotel_netflix_at_night() {
        let sched = EventSchedule::none();
        let cal = cal();
        let c = catalog();
        let netflix = &c[index_of(&c, "Netflix").unwrap()];
        let mon = Date::new(2023, 1, 9);
        let i = cal.day_index(mon).unwrap();
        let night = service_modulation(TemplateKind::Retail, &sched, netflix, mon, i, 22);
        let noon = service_modulation(TemplateKind::Retail, &sched, netflix, mon, i, 12);
        assert!(night > 2.0 * noon);
    }

    #[test]
    fn general_waze_saturday() {
        let sched = EventSchedule::none();
        let cal = cal();
        let c = catalog();
        let waze = &c[index_of(&c, "Waze").unwrap()];
        let sat = Date::new(2023, 1, 7);
        let mon = Date::new(2023, 1, 9);
        let m_sat = service_modulation(
            TemplateKind::BroadDiurnal,
            &sched,
            waze,
            sat,
            cal.day_index(sat).unwrap(),
            14,
        );
        let m_mon = service_modulation(
            TemplateKind::BroadDiurnal,
            &sched,
            waze,
            mon,
            cal.day_index(mon).unwrap(),
            14,
        );
        assert!(m_sat > 1.8 * m_mon);
    }

    #[test]
    fn weights_are_finite_and_nonnegative() {
        let mut rng = Rng::seed_from(9);
        let cal = cal();
        let sched = EventSchedule::stadium(&mut rng, &cal, true);
        for kind in [
            TemplateKind::Commute {
                strike_factor: 0.05,
            },
            TemplateKind::EventBurst,
            TemplateKind::QuietWithExpo,
            TemplateKind::BroadDiurnal,
            TemplateKind::Retail,
            TemplateKind::Office,
        ] {
            for (i, d) in cal.iter_days() {
                for h in 0..24 {
                    let w = template_weight(kind, &sched, &cal, d, i, h);
                    assert!(w.is_finite() && w >= 0.0);
                }
            }
        }
    }

    #[test]
    fn counterfactual_strips_strike_but_keeps_weekend() {
        let kind = TemplateKind::Commute {
            strike_factor: 0.05,
        };
        let planted = cal();
        let control = planted.without_signals();
        let sched = EventSchedule::none();
        let weight = |cal: &StudyCalendar, d: Date| {
            template_weight(kind, &sched, cal, d, cal.day_index(d).unwrap(), 8)
        };
        let strike = StudyCalendar::strike_day(); // a Thursday
        let mon = Date::new(2023, 1, 9);
        let sat = Date::new(2023, 1, 7);
        assert_eq!(weight(&control, strike), weight(&control, mon));
        assert!(weight(&control, sat) < 0.5 * weight(&control, mon));
        // And it matches the planted weight away from any signal.
        assert_eq!(weight(&control, mon), weight(&planted, mon));
    }

    #[test]
    fn event_active_bounds() {
        let e = Event {
            start_day: 5,
            duration_days: 2,
            intensity: 3.0,
            start_hour: 18,
            end_hour: 23,
        };
        assert!(e.active(5, 18));
        assert!(e.active(6, 23));
        assert!(!e.active(7, 18));
        assert!(!e.active(5, 17));
        assert!(!e.active(4, 20));
    }
}
