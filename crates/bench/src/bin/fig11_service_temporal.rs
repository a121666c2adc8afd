//! Figure 11 (a–i) — per-service temporal heatmaps by dendrogram group.
//!
//! Regenerates the nine panels of Figure 11: for each super-group the
//! paper selects three SHAP-important services and plots their normalised
//! median traffic — orange: Spotify / Twitter / transportation websites;
//! green: Netflix / Waze / Snapchat; red: Microsoft Teams / Netflix / Waze.
//! We print the same heatmaps plus the shape statistics the prose reads
//! off them (morning-commute Spotify peaks, Waze lagging event nights,
//! office-hour Teams, hotel-night vs office-lunch Netflix).
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig11_service_temporal [-- --scale 0.25]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_core::service_heatmap;
use icn_synth::services::index_of;
use icn_synth::StudyCalendar;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 11 — per-service temporal heatmaps", &ds);
    let st = study(&ds, &opts);
    let window = StudyCalendar::temporal_window();

    // Order clusters by super-group, as in the paper's panel layout.
    let coarse3 = st.history.cut(3);
    let group_of = |c: usize| {
        let pos = st.labels.iter().position(|&l| l == c).expect("non-empty");
        coarse3[pos]
    };
    // Identify which super-group is which by its dominant environments.
    let mut commuter_group = 0usize;
    let mut event_group = 0usize;
    let mut daytime_group = 0usize;
    for g in 0..3 {
        let clusters: Vec<usize> = (0..9).filter(|&c| group_of(c) == g).collect();
        let metro_mass: usize = clusters
            .iter()
            .map(|&c| st.crosstab.counts[c][icn_core::env_index(icn_synth::Environment::Metro)])
            .sum();
        let stadium_mass: usize = clusters
            .iter()
            .map(|&c| st.crosstab.counts[c][icn_core::env_index(icn_synth::Environment::Stadium)])
            .sum();
        let work_mass: usize = clusters
            .iter()
            .map(|&c| st.crosstab.counts[c][icn_core::env_index(icn_synth::Environment::Workspace)])
            .sum();
        let max = metro_mass.max(stadium_mass).max(work_mass);
        if max == metro_mass {
            commuter_group = g;
        } else if max == stadium_mass {
            event_group = g;
        } else {
            daytime_group = g;
        }
    }
    let _ = daytime_group;

    let panels: Vec<(&str, &str, usize)> = vec![
        ("(a)", "Spotify", commuter_group),
        ("(b)", "Twitter", commuter_group),
        ("(c)", "Transportation Websites", commuter_group),
        ("(d)", "Netflix", event_group),
        ("(e)", "Waze", event_group),
        ("(f)", "Snapchat", event_group),
        ("(g)", "Microsoft Teams", daytime_group),
        ("(h)", "Netflix", daytime_group),
        ("(i)", "Waze", daytime_group),
    ];

    for (tag, svc_name, g) in panels {
        let j = index_of(&ds.services, svc_name).expect("service in catalog");
        // Members of all clusters of the super-group.
        let (members, totals): (Vec<&icn_synth::Antenna>, Vec<f64>) = st
            .live_rows
            .iter()
            .enumerate()
            .filter(|(pos, _)| group_of(st.labels[*pos]) == g)
            .map(|(_, &row)| (&ds.antennas[row], ds.indoor_totals.get(row, j)))
            .unzip();
        if members.is_empty() {
            continue;
        }
        let hm = service_heatmap(
            &members,
            &totals,
            &ds.services[j],
            ds.calendar.num_days(),
            &window,
            ds.root_rng(),
        );
        println!(
            "{tag} {svc_name}, super-group {g} ({} antennas) — commute ratio {:.2}, \
             weekend ratio {:.2}, strike dip {:.2}, burstiness {:.1}",
            members.len(),
            hm.commute_ratio(),
            hm.weekend_ratio(),
            hm.strike_dip(),
            hm.burstiness()
        );
        let labels: Vec<String> = (0..hm.values.len()).map(|d| window.date(d).iso()).collect();
        print!(
            "{}",
            icn_report::heatmap::render_sequential(&hm.values, Some(&labels))
        );
        println!();
    }
    write_metrics(&opts, "fig11_service_temporal");
}
