//! Integration: the Section 6 temporal claims, verified on clusters the
//! pipeline itself discovered (not on planted labels).

use icn_repro::prelude::*;

mod common;

struct Fixture {
    dataset: Dataset,
    study: IcnStudy,
    window: StudyCalendar,
}

fn fixture() -> Fixture {
    let dataset = common::dataset();
    let study = common::study_for(&dataset);
    Fixture {
        dataset,
        study,
        window: StudyCalendar::temporal_window(),
    }
}

/// Mean value at `hour` across the days matching `filter` (0 if none).
fn mean_at_hour(hm: &TemporalHeatmap, hour: usize, filter: impl Fn(usize) -> bool) -> f64 {
    let vals: Vec<f64> = (0..hm.values.len())
        .filter(|&d| filter(d))
        .map(|d| hm.values[d][hour])
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        icn_stats::summary::mean(&vals)
    }
}

fn heatmap_for_archetype(fx: &Fixture, arch: Archetype) -> TemporalHeatmap {
    let map = fx.study.cluster_to_archetype(&fx.dataset);
    let cluster = map
        .iter()
        .position(|&a| a == arch.id())
        .unwrap_or_else(|| panic!("no cluster mapped to {arch:?}"));
    let series = fx
        .study
        .cluster_series(&fx.dataset, cluster, &fx.window)
        .expect("a mapped cluster has members");
    cluster_heatmap(&series, &fx.window)
}

#[test]
fn orange_clusters_commute_and_strike() {
    let fx = fixture();
    let hm = heatmap_for_archetype(&fx, Archetype::ParisMetro);
    assert!(hm.commute_ratio() > 1.5, "commute {}", hm.commute_ratio());
    assert!(hm.strike_dip() < 0.35, "strike {}", hm.strike_dip());
    assert!(hm.weekend_ratio() < 0.6, "weekend {}", hm.weekend_ratio());
}

#[test]
fn provincial_metro_strike_is_milder_than_paris() {
    let fx = fixture();
    let paris = heatmap_for_archetype(&fx, Archetype::ParisMetro);
    let prov = heatmap_for_archetype(&fx, Archetype::ProvincialMetro);
    assert!(
        prov.strike_dip() > 2.0 * paris.strike_dip(),
        "paris {} provincial {}",
        paris.strike_dip(),
        prov.strike_dip()
    );
}

#[test]
fn workspace_cluster_idle_weekends() {
    let fx = fixture();
    let hm = heatmap_for_archetype(&fx, Archetype::Workspace);
    assert!(hm.weekend_ratio() < 0.25, "weekend {}", hm.weekend_ratio());
    // "traffic almost evenly distributed from 10am to 8pm" — no commute
    // bimodality in the red group.
    assert!(hm.commute_ratio() < 1.4, "commute {}", hm.commute_ratio());
}

#[test]
fn retail_cluster_works_weekends() {
    let fx = fixture();
    let hm = heatmap_for_archetype(&fx, Archetype::RetailHospitality);
    assert!(
        hm.weekend_ratio() > 0.5,
        "retail weekend ratio {}",
        hm.weekend_ratio()
    );
}

#[test]
fn event_clusters_are_bursty_diurnal_ones_are_not() {
    let fx = fixture();
    let stadium = heatmap_for_archetype(&fx, Archetype::ProvincialStadium);
    let retail = heatmap_for_archetype(&fx, Archetype::RetailHospitality);
    let general = heatmap_for_archetype(&fx, Archetype::GeneralUse);
    assert!(
        stadium.burstiness() > 3.0 * retail.burstiness(),
        "stadium {} retail {}",
        stadium.burstiness(),
        retail.burstiness()
    );
    assert!(
        stadium.burstiness() > 3.0 * general.burstiness(),
        "stadium {} general {}",
        stadium.burstiness(),
        general.burstiness()
    );
}

#[test]
fn paris_arena_nba_night_visible() {
    // Figure 10f: a burst on the evening of 19 Jan 2023 at Paris arenas.
    let fx = fixture();
    let hm = heatmap_for_archetype(&fx, Archetype::ParisArena);
    let strike = fx.window.day_index(StudyCalendar::strike_day()).unwrap();
    let evening = hm.values[strike][21];
    // Compare with the same hour two days before (no event scheduled for
    // every site simultaneously except the pinned night).
    let quiet = hm.values[strike - 2][21];
    assert!(
        evening > 2.0 * (quiet + 0.01),
        "NBA night {evening} vs quiet {quiet}"
    );
}

#[test]
fn teams_follows_office_hours_netflix_hotel_nights() {
    let fx = fixture();
    let map = fx.study.cluster_to_archetype(&fx.dataset);
    let svc =
        |name: &str| icn_synth::services::index_of(&fx.dataset.services, name).expect("service");
    let service_hm = |arch: Archetype, j: usize| {
        let cluster = map.iter().position(|&a| a == arch.id()).unwrap();
        let (members, totals): (Vec<&icn_synth::Antenna>, Vec<f64>) = fx
            .study
            .live_rows
            .iter()
            .enumerate()
            .filter(|(pos, _)| fx.study.labels[*pos] == cluster)
            .map(|(_, &row)| {
                (
                    &fx.dataset.antennas[row],
                    fx.dataset.indoor_totals.get(row, j),
                )
            })
            .unzip();
        service_heatmap(
            &members,
            &totals,
            &fx.dataset.services[j],
            fx.dataset.calendar.num_days(),
            &fx.window,
            fx.dataset.root_rng(),
        )
    };

    // Figure 11g: Teams heavy in office hours at the workspace cluster.
    let teams = service_hm(Archetype::Workspace, svc("Microsoft Teams"));
    let weekday = |hm: &TemporalHeatmap, d: usize| !hm.window.date(d).weekday().is_weekend();
    let work = mean_at_hour(&teams, 11, |d| weekday(&teams, d));
    let night = mean_at_hour(&teams, 22, |d| weekday(&teams, d));
    assert!(
        work > 3.0 * (night + 1e-9),
        "teams work {work} night {night}"
    );

    // Figure 11h: Netflix at the retail/hotel cluster peaks at night...
    let netflix_hotel = service_hm(Archetype::RetailHospitality, svc("Netflix"));
    let hotel_night = mean_at_hour(&netflix_hotel, 22, |_| true);
    let hotel_morning = mean_at_hour(&netflix_hotel, 9, |_| true);
    assert!(
        hotel_night > hotel_morning,
        "netflix hotel night {hotel_night} vs morning {hotel_morning}"
    );

    // ...while at the workspace cluster it is confined to lunch hours.
    let netflix_office = service_hm(Archetype::Workspace, svc("Netflix"));
    let lunch = mean_at_hour(&netflix_office, 12, |d| weekday(&netflix_office, d));
    let afternoon = mean_at_hour(&netflix_office, 16, |d| weekday(&netflix_office, d));
    assert!(
        lunch > 2.0 * (afternoon + 1e-9),
        "netflix office lunch {lunch} vs afternoon {afternoon}"
    );
}

#[test]
fn waze_peaks_after_events_in_green_group() {
    // Figure 11e: Waze lags the social-media burst by ~2 h at arenas.
    let fx = fixture();
    let map = fx.study.cluster_to_archetype(&fx.dataset);
    let cluster = map
        .iter()
        .position(|&a| a == Archetype::ParisArena.id())
        .unwrap();
    let j_waze = icn_synth::services::index_of(&fx.dataset.services, "Waze").unwrap();
    let j_snap = icn_synth::services::index_of(&fx.dataset.services, "Snapchat").unwrap();
    let series = |j: usize| {
        let (members, totals): (Vec<&icn_synth::Antenna>, Vec<f64>) = fx
            .study
            .live_rows
            .iter()
            .enumerate()
            .filter(|(pos, _)| fx.study.labels[*pos] == cluster)
            .map(|(_, &row)| {
                (
                    &fx.dataset.antennas[row],
                    fx.dataset.indoor_totals.get(row, j),
                )
            })
            .unzip();
        service_heatmap(
            &members,
            &totals,
            &fx.dataset.services[j],
            fx.dataset.calendar.num_days(),
            &fx.window,
            fx.dataset.root_rng(),
        )
    };
    let waze = series(j_waze);
    let snap = series(j_snap);
    let strike = fx.window.day_index(StudyCalendar::strike_day()).unwrap();
    // Snapchat peaks at the event start (19-21h); Waze later (21-23h).
    let snap_early: f64 = (19..=20).map(|h| snap.values[strike][h]).sum();
    let waze_early: f64 = (19..=20).map(|h| waze.values[strike][h]).sum();
    let waze_late: f64 = (21..=23).map(|h| waze.values[strike][h]).sum();
    assert!(
        waze_late > waze_early,
        "waze late {waze_late} vs early {waze_early}"
    );
    assert!(snap_early > 0.0);
}

#[test]
fn service_heatmaps_are_pinned() {
    // Figure 11 reads each member's per-service hourly series from the
    // synthetic weight model; any drift in that model, its noise stream
    // or the per-hour median moves this hash. Scale 0.05 holds no Paris
    // arena, so Waze runs on the provincial stadiums: the same
    // event-burst template, site schedules and Waze lag.
    let ds = common::dataset_at(0.05);
    let window = StudyCalendar::temporal_window();
    let mut h = icn_repro::icn_stats::Fnv1a::new();
    for (name, arch) in [
        ("Spotify", Archetype::ParisMetro),
        ("Waze", Archetype::ProvincialStadium),
        ("Microsoft Teams", Archetype::Workspace),
    ] {
        let j = icn_synth::services::index_of(&ds.services, name).expect("service");
        let (members, totals): (Vec<&icn_synth::Antenna>, Vec<f64>) = ds
            .antennas
            .iter()
            .enumerate()
            .filter(|(_, a)| a.archetype == arch)
            .map(|(i, a)| (a, ds.indoor_totals.get(i, j)))
            .unzip();
        let hm = service_heatmap(
            &members,
            &totals,
            &ds.services[j],
            ds.calendar.num_days(),
            &window,
            ds.root_rng(),
        );
        for v in hm.values.iter().flatten() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    let hash = h.finish();
    assert_eq!(hash, 0x92f1_c6da_aec4_6edf, "{hash:#018x}");
}
