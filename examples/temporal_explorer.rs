//! Temporal explorer: renders the Figure 10-style heatmaps for every
//! cluster plus selected Figure 11 service heatmaps, in the terminal.
//!
//! ```sh
//! cargo run --release --example temporal_explorer
//! ```

use icn_repro::prelude::*;
use icn_synth::services::index_of;

fn main() {
    let dataset = Dataset::generate(SynthConfig::small().with_scale(0.15));
    let study = IcnStudy::run(&dataset, StudyConfig::fast());
    let window = StudyCalendar::temporal_window();

    // Per-cluster aggregate heatmaps (Figure 10).
    for c in 0..study.config.k {
        let Some(series) = study.cluster_series(&dataset, c, &window) else {
            continue;
        };
        let hm = cluster_heatmap(&series, &window);
        let (env, _) = study.crosstab.dominant_environment(c);
        println!(
            "cluster {c} ({}; {} antennas) — commute ratio {:.2}, weekend ratio {:.2}, \
             strike dip {:.2}, burstiness {:.1}",
            env.label(),
            hm.n_antennas,
            hm.commute_ratio(),
            hm.weekend_ratio(),
            hm.strike_dip(),
            hm.burstiness()
        );
        let labels: Vec<String> = (0..hm.values.len())
            .map(|d| window.date(d).iso().to_string())
            .collect();
        print!(
            "{}",
            icn_report::heatmap::render_sequential(&hm.values, Some(&labels))
        );
        println!();
    }

    // Figure 11 exemplars: Spotify at a commuter cluster, Teams at the
    // workspace cluster, Netflix at retail/hospitality.
    let map = study.cluster_to_archetype(&dataset);
    let find_cluster = |arch: Archetype| map.iter().position(|&a| a == arch.id());
    let picks = [
        ("Spotify", Archetype::ParisMetro),
        ("Microsoft Teams", Archetype::Workspace),
        ("Netflix", Archetype::RetailHospitality),
    ];
    for (svc_name, arch) in picks {
        let Some(cluster) = find_cluster(arch) else {
            continue;
        };
        let j = index_of(&dataset.services, svc_name).expect("service in catalog");
        let (members, totals): (Vec<&icn_synth::Antenna>, Vec<f64>) = study
            .live_rows
            .iter()
            .enumerate()
            .filter(|(pos, _)| study.labels[*pos] == cluster)
            .map(|(_, &row)| (&dataset.antennas[row], dataset.indoor_totals.get(row, j)))
            .unzip();
        if members.is_empty() {
            continue;
        }
        let hm = service_heatmap(
            &members,
            &totals,
            &dataset.services[j],
            dataset.calendar.num_days(),
            &window,
            dataset.root_rng(),
        );
        println!(
            "{} at cluster {} ({:?}): commute ratio {:.2}, weekend ratio {:.2}",
            svc_name,
            cluster,
            arch,
            hm.commute_ratio(),
            hm.weekend_ratio()
        );
        let labels: Vec<String> = (0..hm.values.len()).map(|d| window.date(d).iso()).collect();
        print!(
            "{}",
            icn_report::heatmap::render_sequential(&hm.values, Some(&labels))
        );
        println!();
    }
}
