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
//! [`icn_synth::cluster_planted_hours`]. The signal-free control the detector must stay
//! silent on is the same series over a window
//! [`StudyCalendar::without_signals`].
//!
//! One builder makes every series: the members' [`WeightBook`] (hourly
//! weights once per distinct template and event schedule), one parallel
//! fill of their hourly **cube** (row `i` = member `i`'s all-service
//! volume over the window) and the per-hour medians taken off it.
//! [`study_cluster_series`] runs it once over every live antenna;
//! [`cluster_series`] is the same builder over one cluster's members.

use icn_stats::{par, summary, Rng};
use icn_synth::traffic::WeightBook;
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

/// Builds one cluster's series over `window`: the view of
/// [`study_cluster_series`]'s builder over one group holding every member.
/// Bit-identical to that cluster's entry in a study-wide build.
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
    let all: Vec<usize> = (0..members.len()).collect();
    ClusterSeries {
        cluster,
        n_antennas: members.len(),
        values: group_series(
            members,
            member_rows,
            &[all],
            services,
            full_period_days,
            window,
            root,
        ),
    }
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
    let mut groups = vec![Vec::new(); k];
    for (i, &c) in labels.iter().enumerate() {
        assert!(c < k, "study_cluster_series: label {c} outside 0..{k}");
        groups[c].push(i);
    }
    let members: Vec<&Antenna> = antennas.iter().collect();
    let values = group_series(
        &members,
        totals_rows,
        &groups,
        services,
        full_period_days,
        window,
        root,
    );
    let hours = window.num_hours();
    groups
        .iter()
        .enumerate()
        .map(|(c, g)| ClusterSeries {
            cluster: c,
            n_antennas: g.len(),
            values: values[c * hours..(c + 1) * hours].to_vec(),
        })
        .collect()
}

/// The one stage-6 builder: the weight book of `antennas`
/// (`weights` span), one parallel fill of their hourly cube (`synth`),
/// then every group's per-hour median off the cube (`median`), returned
/// as a flat `groups × hours` slab. A group lists cube rows; an empty
/// group's hours stay zero.
fn group_series(
    antennas: &[&Antenna],
    rows: &[&[f64]],
    groups: &[Vec<usize>],
    services: &[Service],
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> Vec<f64> {
    let book = {
        let _span = icn_obs::Span::enter("weights");
        WeightBook::new(antennas, services, window, root)
    };
    let cube = {
        let _span = icn_obs::Span::enter("synth");
        book.fill_cube(rows, full_period_days)
    };
    let obs = icn_obs::global();
    if obs.is_enabled() {
        obs.add_counter("forecast.weight_tables", book.num_tables() as u64);
        obs.add_counter("forecast.noise_draws", book.noise_draws());
    }
    let _span = icn_obs::Span::enter("median");
    group_medians(&cube, window.num_hours(), groups)
}

/// Per-hour median across the rows of a flat `members × hours` slab: the
/// one aggregation behind the stage-6 cluster series, the Figure 10
/// heatmaps (the same series) and the Figure 11 service heatmaps.
pub fn median_over_members(slab: &[f64], hours: usize) -> Vec<f64> {
    assert_eq!(slab.len() % hours, 0, "median_over_members: ragged slab");
    group_medians(slab, hours, &[(0..slab.len() / hours).collect()])
}

/// Hours per median block: one day of one group.
const MEDIAN_BLOCK_HOURS: usize = 24;

/// Every group's per-hour median over the rows it lists, as a flat
/// `groups × hours` slab, in one parallel pass over (group, day) blocks.
fn group_medians(slab: &[f64], hours: usize, groups: &[Vec<usize>]) -> Vec<f64> {
    let mut out = vec![0.0; groups.len() * hours];
    let bounds: Vec<usize> = (0..groups.len())
        .flat_map(|g| {
            (0..hours)
                .step_by(MEDIAN_BLOCK_HOURS)
                .map(move |h| g * hours + h)
        })
        .chain([out.len()])
        .collect();
    par::fill_blocks(&mut out, &bounds, |b, medians| {
        let rows = &groups[bounds[b] / hours];
        if rows.is_empty() {
            return;
        }
        let first = bounds[b] % hours;
        let mut scratch = vec![0.0; rows.len()];
        for (h, m) in (first..).zip(medians) {
            for (s, &r) in scratch.iter_mut().zip(rows) {
                *s = slab[r * hours + h];
            }
            *m = summary::median_inplace(&mut scratch);
        }
    });
    out
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
        let three = [silent.clone(), loud.clone(), silent.clone()].concat();
        assert_eq!(median_over_members(&three, 24), silent);
        let two = [silent, loud].concat();
        assert_eq!(median_over_members(&two, 24), vec![1.0; 24]);
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
        assert_eq!(all[3].values, vec![0.0; w.num_hours()]);
        assert!(all[..3].iter().all(|s| s.n_antennas > 0));
    }

    #[test]
    fn cluster_view_matches_the_study_build_bitwise() {
        // One study-wide cube vs one cube per cluster: the per-cluster
        // view must return the study build's entry bit for bit.
        let (d, w) = setup();
        let rows: Vec<&[f64]> = (0..d.antennas.len())
            .map(|i| d.indoor_totals.row(i))
            .collect();
        let labels = d.planted_labels();
        let all = study_cluster_series(
            &d.antennas,
            &rows,
            &labels,
            9,
            &d.services,
            65,
            &w,
            d.root_rng(),
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for s in &all {
            assert!(s.n_antennas > 0, "archetype {} has members", s.cluster);
            let (members, member_rows): (Vec<&Antenna>, Vec<&[f64]>) = (0..d.antennas.len())
                .filter(|&i| labels[i] == s.cluster)
                .map(|i| (&d.antennas[i], rows[i]))
                .unzip();
            let view = cluster_series(
                s.cluster,
                &members,
                &member_rows,
                &d.services,
                65,
                &w,
                d.root_rng(),
            );
            assert_eq!(view.n_antennas, s.n_antennas);
            assert_eq!(bits(&view.values), bits(&s.values), "cluster {}", s.cluster);
        }
    }

    #[test]
    fn median_blocks_cover_partial_days() {
        // A 5-hour window: each group is one partial-day block.
        let slab: Vec<f64> = (0..3 * 5).map(|v| v as f64).collect();
        assert_eq!(median_over_members(&slab, 5), vec![5.0, 6.0, 7.0, 8.0, 9.0]);
        let groups = [vec![0, 2], vec![], vec![1]];
        let medians = group_medians(&slab, 5, &groups);
        assert_eq!(&medians[..5], &[5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(&medians[5..10], &[0.0; 5]);
        assert_eq!(&medians[10..], &[5.0, 6.0, 7.0, 8.0, 9.0]);
    }
}
