//! Cluster-level hourly series.
//!
//! The forecasting unit is the cluster: the per-hour **median across
//! member antennas** of aggregate (all-service) traffic, in raw MB/hour.
//! It is the one object Section 6 reads: stage 6 forecasts it as is, and
//! the Figure 10 heatmaps (`icn_core::cluster_heatmap`) are this series
//! max-normalised. The median over members is what makes per-site
//! one-offs (a single stadium's extra fixture) vanish while
//! population-wide signals (the strike, the pinned NBA night) survive —
//! matching the cluster-majority ground-truth labels in
//! [`icn_synth::signals`]. The signal-free control the detector must stay
//! silent on is the same series over a window
//! [`StudyCalendar::without_signals`].

use icn_stats::{par, summary, Rng};
use icn_synth::traffic::aggregate_hourly_series;
use icn_synth::{Antenna, Service, StudyCalendar};

/// One cluster's raw hourly series.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSeries {
    /// Cluster id (index into the study's label space).
    pub cluster: usize,
    /// Member count the median runs over.
    pub n_antennas: usize,
    /// Median MB/hour, one entry per hour of the window.
    pub values: Vec<f64>,
}

/// Builds one cluster's series over `window`: parallel per-member
/// synthesis (order preserved by `par::map_indexed`), then a sequential
/// per-hour median — bit-identical at any `ICN_THREADS`.
pub fn cluster_series(
    cluster: usize,
    members: &[&Antenna],
    member_rows: &[&[f64]],
    services: &[Service],
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> ClusterSeries {
    assert_eq!(members.len(), member_rows.len(), "cluster_series: mismatch");
    assert!(!members.is_empty(), "cluster_series: no members");
    let per_member: Vec<Vec<f64>> = par::map_indexed(members.len(), |i| {
        aggregate_hourly_series(
            members[i],
            services,
            member_rows[i],
            full_period_days,
            window,
            root,
        )
    });
    ClusterSeries {
        cluster,
        n_antennas: members.len(),
        values: median_over_members(&per_member, window.num_hours()),
    }
}

/// Per-hour median across member series, each `hours` long: the one
/// aggregation behind the cluster series and the Figure 10–11 heatmaps.
pub fn median_over_members(per_member: &[Vec<f64>], hours: usize) -> Vec<f64> {
    let mut scratch = vec![0.0f64; per_member.len()];
    (0..hours)
        .map(|h| {
            for (s, row) in scratch.iter_mut().zip(per_member) {
                *s = row[h];
            }
            summary::median_inplace(&mut scratch)
        })
        .collect()
}

/// Groups a study's live antennas by cluster label and builds every
/// cluster's series. `antennas[i]` and `totals_rows[i]` must align with
/// `labels[i]`; empty clusters yield an empty-series placeholder so the
/// output always has `k` entries indexed by cluster id.
#[allow(clippy::too_many_arguments)] // mirrors the study's stage-6 call site 1:1
pub fn study_cluster_series(
    antennas: &[Antenna],
    totals_rows: &[&[f64]],
    labels: &[usize],
    k: usize,
    services: &[Service],
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> Vec<ClusterSeries> {
    assert_eq!(antennas.len(), labels.len(), "study_cluster_series: labels");
    assert_eq!(
        antennas.len(),
        totals_rows.len(),
        "study_cluster_series: rows"
    );
    (0..k)
        .map(|c| {
            let idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
            if idx.is_empty() {
                return ClusterSeries {
                    cluster: c,
                    n_antennas: 0,
                    values: vec![0.0; window.num_hours()],
                };
            }
            let members: Vec<&Antenna> = idx.iter().map(|&i| &antennas[i]).collect();
            let rows: Vec<&[f64]> = idx.iter().map(|&i| totals_rows[i]).collect();
            cluster_series(c, &members, &rows, services, full_period_days, window, root)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_synth::{Archetype, Dataset, SynthConfig};

    fn setup() -> (Dataset, StudyCalendar) {
        (
            Dataset::generate(SynthConfig::small()),
            StudyCalendar::temporal_window(),
        )
    }

    fn archetype_cluster(d: &Dataset, arch: Archetype) -> (Vec<&Antenna>, Vec<&[f64]>) {
        let idx: Vec<usize> = (0..d.antennas.len())
            .filter(|&i| d.antennas[i].archetype == arch)
            .collect();
        let members: Vec<&Antenna> = idx.iter().map(|&i| &d.antennas[i]).collect();
        let rows: Vec<&[f64]> = idx.iter().map(|&i| d.indoor_totals.row(i)).collect();
        (members, rows)
    }

    #[test]
    fn series_has_window_length_and_is_finite() {
        let (d, w) = setup();
        let (members, rows) = archetype_cluster(&d, Archetype::ParisMetro);
        let s = cluster_series(0, &members, &rows, &d.services, 65, &w, d.root_rng());
        assert_eq!(s.values.len(), w.num_hours());
        assert!(s.values.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert_eq!(s.n_antennas, members.len());
    }

    #[test]
    fn metro_series_shows_strike_collapse() {
        let (d, w) = setup();
        let (members, rows) = archetype_cluster(&d, Archetype::ParisMetro);
        let s = cluster_series(0, &members, &rows, &d.services, 65, &w, d.root_rng());
        let strike = w.day_index(StudyCalendar::strike_day()).unwrap();
        let normal_thu = strike - 7;
        assert!(s.values[strike * 24 + 8] < 0.2 * s.values[normal_thu * 24 + 8]);
    }

    #[test]
    fn signal_free_series_has_no_strike_collapse() {
        let (d, w) = setup();
        let (members, rows) = archetype_cluster(&d, Archetype::ParisMetro);
        let control = w.without_signals();
        let s = cluster_series(0, &members, &rows, &d.services, 65, &control, d.root_rng());
        let strike = w.day_index(StudyCalendar::strike_day()).unwrap();
        let normal_thu = strike - 7;
        let ratio = s.values[strike * 24 + 8] / s.values[normal_thu * 24 + 8];
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn median_is_taken_per_hour() {
        // Two antennas: one silent, one loud — median of [0, x] = x/2;
        // with 3 antennas (two silent) the median is 0.
        let loud = vec![2.0; 24];
        let silent = vec![0.0; 24];
        let three = [silent.clone(), loud.clone(), silent.clone()];
        assert_eq!(median_over_members(&three, 24), silent);
        assert_eq!(median_over_members(&[silent, loud], 24), vec![1.0; 24]);
    }

    #[test]
    fn study_grouping_covers_every_cluster() {
        let (d, w) = setup();
        let n = 40.min(d.antennas.len());
        let antennas: Vec<Antenna> = d.antennas[..n].to_vec();
        let rows: Vec<&[f64]> = (0..n).map(|i| d.indoor_totals.row(i)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let all = study_cluster_series(
            &antennas,
            &rows,
            &labels,
            4,
            &d.services,
            65,
            &w,
            d.root_rng(),
        );
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].n_antennas, 0); // empty cluster placeholder
        assert!(all[..3].iter().all(|s| s.n_antennas > 0));
    }
}
