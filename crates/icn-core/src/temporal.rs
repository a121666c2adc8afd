//! Temporal analysis (Section 6, Figures 10–11).
//!
//! The paper plots, per cluster, the hour-by-day heatmap of the
//! **normalised median traffic** across the cluster's antennas over
//! 4–24 January 2023 — both for total traffic (Figure 10) and for selected
//! services (Figure 11). The Figure 10 heatmap is the cluster's stage-6
//! series ([`crate::IcnStudy::cluster_series`]) max-normalised; the
//! Figure 11 heatmaps synthesise one service's hourly series per member on
//! demand and take the same per-hour median. This module also computes the
//! summary statistics the prose reads off them (commute-peak ratios,
//! strike-day dips, weekend effects, event bursts).

use icn_forecast::series::median_over_members;
use icn_forecast::ClusterSeries;
use icn_stats::{normalize, par, summary, Rng};
use icn_synth::traffic::hourly_series_for_window;
use icn_synth::{Antenna, Service, StudyCalendar, Weekday};

/// An hour × day heatmap of normalised median traffic.
#[derive(Clone, Debug)]
pub struct TemporalHeatmap {
    /// The analysis window.
    pub window: StudyCalendar,
    /// `values[day][hour]`, max-normalised to `[0, 1]`.
    pub values: Vec<Vec<f64>>,
    /// How many antennas contributed.
    pub n_antennas: usize,
}

impl TemporalHeatmap {
    /// Flat row of one day.
    pub fn day(&self, d: usize) -> &[f64] {
        &self.values[d]
    }

    /// Mean value at a given hour across all days matching `filter`.
    pub fn mean_at_hour(&self, hour: usize, filter: impl Fn(usize) -> bool) -> f64 {
        let vals: Vec<f64> = self
            .values
            .iter()
            .enumerate()
            .filter(|(d, _)| filter(*d))
            .map(|(_, row)| row[hour])
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            summary::mean(&vals)
        }
    }

    /// Mean over all hours of one day.
    pub fn day_mean(&self, d: usize) -> f64 {
        summary::mean(&self.values[d])
    }

    /// Ratio of commute-hour traffic (07–09 h, 17–19 h) to midday traffic
    /// (11–15 h) on weekdays — ≫ 1 for the orange group, ≈ 1 for red.
    pub fn commute_ratio(&self) -> f64 {
        let weekdays: Vec<usize> = self
            .window
            .iter_days()
            .filter(|(_, date)| {
                !date.weekday().is_weekend() && *date != StudyCalendar::strike_day()
            })
            .map(|(i, _)| i)
            .collect();
        let mean_hours = |hours: &[usize]| -> f64 {
            let mut acc = Vec::new();
            for &d in &weekdays {
                for &h in hours {
                    acc.push(self.values[d][h]);
                }
            }
            if acc.is_empty() {
                0.0
            } else {
                summary::mean(&acc)
            }
        };
        let commute = mean_hours(&[7, 8, 9, 17, 18, 19]);
        let midday = mean_hours(&[11, 12, 13, 14, 15]);
        if midday <= 0.0 {
            f64::INFINITY
        } else {
            commute / midday
        }
    }

    /// Ratio of weekend to weekday daytime traffic.
    pub fn weekend_ratio(&self) -> f64 {
        let daytime = 9..=19;
        let mut wk = Vec::new();
        let mut we = Vec::new();
        for (d, date) in self.window.iter_days() {
            if date == StudyCalendar::strike_day() {
                continue;
            }
            let bucket = if date.weekday().is_weekend() {
                &mut we
            } else {
                &mut wk
            };
            for h in daytime.clone() {
                bucket.push(self.values[d][h]);
            }
        }
        if wk.is_empty() || summary::mean(&wk) <= 0.0 {
            return 0.0;
        }
        summary::mean(&we) / summary::mean(&wk)
    }

    /// Ratio of strike-day traffic to the mean same-weekday traffic
    /// (other Thursdays of the window) — ≪ 1 for Paris transit clusters.
    pub fn strike_dip(&self) -> f64 {
        let strike = StudyCalendar::strike_day();
        let Some(sd) = self.window.day_index(strike) else {
            return 1.0;
        };
        let strike_mean = self.day_mean(sd);
        let peers: Vec<f64> = self
            .window
            .iter_days()
            .filter(|(i, date)| *i != sd && date.weekday() == Weekday::Thu)
            .map(|(i, _)| self.day_mean(i))
            .collect();
        if peers.is_empty() {
            return 1.0;
        }
        let peer_mean = summary::mean(&peers);
        if peer_mean <= 0.0 {
            1.0
        } else {
            strike_mean / peer_mean
        }
    }

    /// The heatmap flattened back into one hourly series (day-major), for
    /// rhythm analysis with [`crate::periodicity`].
    pub fn flat_series(&self) -> Vec<f64> {
        self.values.iter().flatten().copied().collect()
    }

    /// Rhythm profile (lag-24 / lag-168 autocorrelation) of the cluster's
    /// median traffic — diurnal clusters score high, event venues low.
    pub fn rhythm(&self) -> crate::periodicity::Rhythm {
        crate::periodicity::Rhythm::of(&self.flat_series())
    }

    /// Peak-to-median ratio over all cells — large for bursty (event)
    /// clusters, small for diurnal ones.
    pub fn burstiness(&self) -> f64 {
        let flat: Vec<f64> = self.values.iter().flatten().copied().collect();
        let med = summary::median(&flat);
        let max = summary::max(&flat);
        if med <= 0.0 {
            f64::INFINITY
        } else {
            max / med
        }
    }
}

/// The Figure 10 heatmap of one cluster: its median hourly series over
/// `window` (see [`crate::IcnStudy::cluster_series`]), max-normalised.
pub fn cluster_heatmap(series: &ClusterSeries, window: &StudyCalendar) -> TemporalHeatmap {
    max_normalised(&series.values, series.n_antennas, window)
}

/// Builds the Figure 11 heatmap for one cluster and one service.
pub fn service_heatmap(
    members: &[&Antenna],
    member_totals: &[f64],
    service: &Service,
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> TemporalHeatmap {
    assert_eq!(
        members.len(),
        member_totals.len(),
        "service_heatmap: mismatch"
    );
    assert!(!members.is_empty(), "service_heatmap: no members");
    let hours = window.num_hours();
    let mut slab = vec![0.0; members.len() * hours];
    par::fill_chunks(&mut slab, hours, |range, row| {
        let i = range.start / hours;
        row.copy_from_slice(&hourly_series_for_window(
            members[i],
            service,
            member_totals[i],
            full_period_days,
            window,
            root,
        ));
    });
    let medians = median_over_members(&slab, hours);
    max_normalised(&medians, members.len(), window)
}

/// Max-normalises an hourly median series into day × hour.
fn max_normalised(medians: &[f64], n_antennas: usize, window: &StudyCalendar) -> TemporalHeatmap {
    let norm = normalize::by_max(medians);
    let values: Vec<Vec<f64>> = norm.chunks_exact(24).map(|c| c.to_vec()).collect();
    TemporalHeatmap {
        window: window.clone(),
        values,
        n_antennas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Matrix;
    use icn_synth::services::index_of;
    use icn_synth::{Archetype, Dataset, SynthConfig};

    fn small() -> Dataset {
        Dataset::generate(SynthConfig::small())
    }

    fn members_of(d: &Dataset, arch: Archetype) -> (Vec<&Antenna>, Vec<&[f64]>) {
        let mut members = Vec::new();
        let mut rows: Vec<&[f64]> = Vec::new();
        for (i, a) in d.antennas.iter().enumerate() {
            if a.archetype == arch {
                members.push(a);
                rows.push(d.indoor_totals.row(i));
            }
        }
        (members, rows)
    }

    fn archetype_heatmap(d: &Dataset, arch: Archetype) -> TemporalHeatmap {
        let (members, rows) = members_of(d, arch);
        let window = StudyCalendar::temporal_window();
        let days = d.calendar.num_days();
        let series = icn_forecast::cluster_series(
            0,
            &members,
            &rows,
            &d.services,
            days,
            &window,
            d.root_rng(),
        );
        cluster_heatmap(&series, &window)
    }

    #[test]
    fn commuter_cluster_has_commute_peaks_and_strike_dip() {
        let d = small();
        let hm = archetype_heatmap(&d, Archetype::ParisMetro);
        assert!(
            hm.commute_ratio() > 1.5,
            "commute ratio {}",
            hm.commute_ratio()
        );
        assert!(hm.strike_dip() < 0.3, "strike dip {}", hm.strike_dip());
        assert!(
            hm.weekend_ratio() < 0.6,
            "weekend ratio {}",
            hm.weekend_ratio()
        );
    }

    #[test]
    fn office_cluster_idle_weekends_flat_day() {
        let d = small();
        let hm = archetype_heatmap(&d, Archetype::Workspace);
        assert!(
            hm.weekend_ratio() < 0.2,
            "weekend ratio {}",
            hm.weekend_ratio()
        );
        assert!(
            hm.commute_ratio() < 1.5,
            "commute ratio {}",
            hm.commute_ratio()
        );
    }

    #[test]
    fn event_cluster_is_bursty() {
        let d = small();
        let hm = archetype_heatmap(&d, Archetype::ProvincialStadium);
        let hm_r = archetype_heatmap(&d, Archetype::RetailHospitality);
        assert!(
            hm.burstiness() > 2.0 * hm_r.burstiness().min(1e6),
            "stadium burstiness {} vs retail {}",
            hm.burstiness(),
            hm_r.burstiness()
        );
    }

    #[test]
    fn heatmap_shape_and_normalisation() {
        let d = small();
        let hm = archetype_heatmap(&d, Archetype::GeneralUse);
        assert_eq!(hm.values.len(), 21);
        assert!(hm.values.iter().all(|day| day.len() == 24));
        let max = hm
            .values
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-9, "max {max}");
        assert!(hm
            .values
            .iter()
            .flatten()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn teams_service_heatmap_follows_office_hours() {
        let d = small();
        let (members, _) = members_of(&d, Archetype::Workspace);
        let teams_idx = index_of(&d.services, "Microsoft Teams").unwrap();
        let totals: Vec<f64> = d
            .antennas
            .iter()
            .enumerate()
            .filter(|(_, a)| a.archetype == Archetype::Workspace)
            .map(|(i, _)| d.indoor_totals.get(i, teams_idx))
            .collect();
        let window = StudyCalendar::temporal_window();
        let hm = service_heatmap(
            &members,
            &totals,
            &d.services[teams_idx],
            d.calendar.num_days(),
            &window,
            d.root_rng(),
        );
        // Weekday 11:00 activity far above weekday 22:00.
        let weekday = |d: usize| !hm.window.date(d).weekday().is_weekend();
        let work = hm.mean_at_hour(11, weekday);
        let night = hm.mean_at_hour(22, weekday);
        assert!(work > 3.0 * (night + 1e-9), "work {work} night {night}");
    }

    #[test]
    fn heatmap_is_the_series_max_normalised() {
        let window = StudyCalendar::custom(icn_synth::Date::new(2023, 1, 9), 1);
        let series = ClusterSeries {
            cluster: 0,
            n_antennas: 3,
            values: (0..24).map(|h| h as f64).collect(),
        };
        let hm = cluster_heatmap(&series, &window);
        assert_eq!(hm.n_antennas, 3);
        assert_eq!(hm.values, vec![normalize::by_max(&series.values)]);
        assert_eq!(hm.values[0][23], 1.0);
    }

    #[test]
    fn matrix_roundtrip_guard() {
        // Guard: totals rows used above must match the matrix dimensions.
        let d = small();
        assert_eq!(d.indoor_totals.cols(), d.services.len());
        let _: &Matrix = &d.indoor_totals;
    }
}
