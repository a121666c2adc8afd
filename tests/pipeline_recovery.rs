//! End-to-end integration: the pipeline must *recover* the structure the
//! paper reports from the synthetic campaign — clusters matching planted
//! archetypes, dendrogram group structure, environment monopolies, outdoor
//! concentration — and do so deterministically.

use icn_repro::prelude::*;

mod common;

fn study_fixture() -> (Dataset, IcnStudy) {
    let dataset = common::dataset();
    let study = common::study_for(&dataset);
    (dataset, study)
}

#[test]
fn recovers_nine_archetypes_with_high_ari() {
    let (dataset, study) = study_fixture();
    let planted: Vec<usize> = study
        .live_rows
        .iter()
        .map(|&i| dataset.planted_labels()[i])
        .collect();
    let ari = adjusted_rand_index(&study.labels, &planted);
    let nmi = normalized_mutual_info(&study.labels, &planted);
    assert!(ari > 0.8, "ARI {ari}");
    assert!(nmi > 0.8, "NMI {nmi}");
    assert!(purity(&study.labels, &planted) > 0.85);
}

#[test]
fn every_discovered_cluster_maps_to_distinct_archetype() {
    let (dataset, study) = study_fixture();
    let map = study.cluster_to_archetype(&dataset);
    let mut sorted = map.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        9,
        "cluster->archetype map not a bijection: {map:?}"
    );
}

#[test]
fn dendrogram_groups_match_paper_structure() {
    // Cutting at k=3 must reproduce the orange/green/red super-groups:
    // clusters mapping to archetypes of the same group share a k=3 branch.
    let (dataset, study) = study_fixture();
    let coarse = study.history.cut(3);
    let planted = dataset.planted_labels();
    use std::collections::HashMap;
    // For each archetype group, collect the coarse labels of its antennas.
    let mut group_votes: HashMap<&'static str, HashMap<usize, usize>> = HashMap::new();
    for (pos, &row) in study.live_rows.iter().enumerate() {
        let arch = Archetype::from_id(planted[row]);
        let g = arch.group().label();
        *group_votes
            .entry(g)
            .or_default()
            .entry(coarse[pos])
            .or_default() += 1;
    }
    // Each group's antennas should be concentrated in one coarse cluster.
    let mut majors = Vec::new();
    for (g, votes) in &group_votes {
        let total: usize = votes.values().sum();
        let (major, count) = votes.iter().max_by_key(|(_, &c)| c).unwrap();
        let frac = *count as f64 / total as f64;
        assert!(frac > 0.7, "group {g}: coarse split {votes:?}");
        majors.push(*major);
    }
    majors.sort_unstable();
    majors.dedup();
    assert_eq!(majors.len(), 3, "groups collapsed into same coarse cluster");
}

#[test]
fn consolidation_k9_to_k6_is_consistent_with_tree() {
    let (_, study) = study_fixture();
    // Consolidation map must send all 9 fine clusters onto exactly the
    // coarse labels present at k=6.
    let mut coarse_used: Vec<usize> = study.consolidation.clone();
    coarse_used.sort_unstable();
    coarse_used.dedup();
    assert_eq!(coarse_used.len(), 6);
}

#[test]
fn environment_monopolies_hold() {
    let (dataset, study) = study_fixture();
    let map = study.cluster_to_archetype(&dataset);
    // Transit clusters (archetypes 0/4/7) are composed of metro+train only.
    for (c, &arch) in map.iter().enumerate() {
        let a = Archetype::from_id(arch);
        if matches!(a, Archetype::ParisMetro | Archetype::ProvincialMetro) {
            let comp = study.crosstab.cluster_composition(c);
            let transit = comp[icn_core::env_index(Environment::Metro)]
                + comp[icn_core::env_index(Environment::TrainStation)];
            assert!(transit > 0.8, "cluster {c} ({a:?}): transit {transit}");
        }
        if a == Archetype::Workspace {
            let (env, share) = study.crosstab.dominant_environment(c);
            assert_eq!(env, Environment::Workspace);
            assert!(share > 0.5, "workspace share {share}");
        }
    }
}

#[test]
fn paris_share_statements_hold() {
    let (dataset, study) = study_fixture();
    let map = study.cluster_to_archetype(&dataset);
    for (c, &arch) in map.iter().enumerate() {
        match Archetype::from_id(arch) {
            // ">92% of clusters 0 and 4 antennas are located in Paris".
            Archetype::ParisMetro => assert!(
                study.crosstab.paris_share[c] > 0.9,
                "cluster {c} paris {}",
                study.crosstab.paris_share[c]
            ),
            // Cluster 7 "consists solely of ... non-capital cities".
            Archetype::ProvincialMetro => assert!(
                study.crosstab.paris_share[c] < 0.1,
                "cluster {c} paris {}",
                study.crosstab.paris_share[c]
            ),
            _ => {}
        }
    }
}

#[test]
fn outdoor_antennas_concentrate_in_general_use() {
    let (dataset, study) = study_fixture();
    let map = study.cluster_to_archetype(&dataset);
    let (dom, share) = study.outdoor.dominant;
    assert_eq!(
        Archetype::from_id(map[dom]),
        Archetype::GeneralUse,
        "dominant outdoor cluster is not general-use"
    );
    // The paper reports ~70%; our generator produces the same order.
    assert!(share > 0.55, "dominant share {share}");
    // Transit/stadium/workspace clusters are nearly absent outdoors.
    for (c, &arch) in map.iter().enumerate() {
        let a = Archetype::from_id(arch);
        if matches!(
            a,
            Archetype::ParisMetro
                | Archetype::ParisRail
                | Archetype::ProvincialMetro
                | Archetype::Workspace
        ) {
            assert!(
                study.outdoor.distribution[c] < 0.1,
                "{a:?} outdoor share {}",
                study.outdoor.distribution[c]
            );
        }
    }
}

#[test]
fn outdoor_diversity_is_lower_than_indoor() {
    let (_, study) = study_fixture();
    let indoor = distribution_entropy(&label_distribution(&study.labels, 9));
    let outdoor = distribution_entropy(&study.outdoor.distribution);
    assert!(
        outdoor < 0.6 * indoor,
        "entropy indoor {indoor} outdoor {outdoor}"
    );
}

#[test]
fn surrogate_is_faithful_to_clustering() {
    let (_, study) = study_fixture();
    assert!(
        study.surrogate_accuracy > 0.97,
        "{}",
        study.surrogate_accuracy
    );
    assert!(study.surrogate_oob.unwrap_or(0.0) > 0.8);
}

#[test]
fn shap_identifies_signature_services() {
    // The cluster mapping to the Workspace archetype must rank a
    // work-oriented service among its top SHAP influences with an
    // over-utilisation direction.
    let (dataset, study) = study_fixture();
    let map = study.cluster_to_archetype(&dataset);
    let work_cluster = map
        .iter()
        .position(|&a| a == Archetype::Workspace.id())
        .expect("workspace cluster exists");
    let ex = &study.explanations[work_cluster];
    let names: Vec<&str> = dataset.services.iter().map(|s| s.name).collect();
    let top10: Vec<(&str, Direction)> = ex
        .top(10)
        .iter()
        .map(|i| (names[i.feature], i.direction))
        .collect();
    let has_work_over = top10.iter().any(|(n, d)| {
        matches!(
            *n,
            "Microsoft Teams" | "LinkedIn" | "Outlook Mail" | "Microsoft 365" | "Corporate VPN"
        ) && *d == Direction::OverUtilized
    });
    assert!(has_work_over, "top10 {top10:?}");
}

#[test]
fn full_run_is_deterministic() {
    let d1 = common::dataset();
    let d2 = common::dataset();
    let s1 = common::study_for(&d1);
    let s2 = common::study_for(&d2);
    assert_eq!(s1.labels, s2.labels);
    assert_eq!(s1.outdoor.predicted, s2.outdoor.predicted);
    assert_eq!(s1.surrogate_accuracy, s2.surrogate_accuracy);
    // SHAP rankings identical too.
    for (a, b) in s1.explanations.iter().zip(&s2.explanations) {
        let ta: Vec<usize> = a.top(10).iter().map(|i| i.feature).collect();
        let tb: Vec<usize> = b.top(10).iter().map(|i| i.feature).collect();
        assert_eq!(ta, tb);
    }
}

#[test]
fn clustering_is_bootstrap_stable() {
    // The paper's clusters must be "inherent", i.e. survive resampling:
    // 70% subsamples re-clustered at k = 9 agree with the full partition.
    let (_, study) = study_fixture();
    let result = icn_repro::icn_cluster::bootstrap_stability(
        &study.rsca,
        &study.labels,
        9,
        Linkage::Ward,
        0.7,
        6,
        0xB007,
    );
    assert!(
        result.mean_ari() > 0.8,
        "mean stability {}",
        result.mean_ari()
    );
    assert!(result.min_ari() > 0.6, "min stability {}", result.min_ari());
}
