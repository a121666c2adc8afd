//! Cluster-level explanation summaries — the data behind Figure 5.
//!
//! Figure 5 of the paper shows, per cluster, a beeswarm of SHAP values: the
//! 25 most influential services ranked by mean |SHAP|, with the colour
//! (feature value) revealing whether membership is driven by over- or
//! under-utilisation. This module reduces a batch SHAP matrix to exactly
//! those statistics: per-feature mean absolute SHAP (the importance), and
//! the correlation between SHAP value and feature value (the direction —
//! positive ⇒ the cluster over-utilises the service, negative ⇒ membership
//! is signalled by *low* feature values, i.e. under-utilisation).

use icn_stats::{summary, Matrix};

/// Direction of a feature's influence on cluster membership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// High feature values push the sample into the class —
    /// over-utilisation characterises the cluster.
    OverUtilized,
    /// Low feature values push the sample into the class —
    /// under-utilisation characterises the cluster.
    UnderUtilized,
    /// No consistent direction.
    Neutral,
}

/// Summary of one feature's role in one class's explanation.
#[derive(Clone, Debug)]
pub struct FeatureInfluence {
    /// Feature (service) index.
    pub feature: usize,
    /// Mean absolute SHAP value — the ranking key of Figure 5.
    pub mean_abs_shap: f64,
    /// Pearson correlation between SHAP values and feature values.
    pub shap_value_correlation: f64,
    /// Mean SHAP among the class's own members (positive: the feature
    /// actively votes *for* membership on members).
    pub mean_shap_on_members: f64,
    /// Direction classification.
    pub direction: Direction,
}

/// Full explanation of one class (cluster): features ranked by importance.
#[derive(Clone, Debug)]
pub struct ClassExplanation {
    /// Explained class (cluster id).
    pub class: usize,
    /// Features in descending `mean_abs_shap` order.
    pub influences: Vec<FeatureInfluence>,
}

impl ClassExplanation {
    /// The `k` most influential features (the paper shows 25).
    pub fn top(&self, k: usize) -> &[FeatureInfluence] {
        &self.influences[..k.min(self.influences.len())]
    }
}

/// Threshold on |correlation| below which a feature is Neutral.
const DIRECTION_CORR_THRESHOLD: f64 = 0.1;

/// Builds the Figure 5 statistics for one class from a SHAP matrix
/// (`samples × features`), the corresponding feature matrix and the
/// predicted labels.
pub fn explain_class(
    shap: &Matrix,
    features: &Matrix,
    labels: &[usize],
    class: usize,
) -> ClassExplanation {
    assert_eq!(
        shap.shape(),
        features.shape(),
        "explain_class: shape mismatch"
    );
    assert_eq!(labels.len(), shap.rows(), "explain_class: label mismatch");
    let m = shap.cols();
    let mut influences: Vec<FeatureInfluence> = (0..m)
        .map(|f| {
            let s_col = shap.col(f);
            let x_col = features.col(f);
            let mean_abs = s_col.iter().map(|v| v.abs()).sum::<f64>() / s_col.len() as f64;
            let corr = summary::pearson(&s_col, &x_col);
            let members: Vec<f64> = s_col
                .iter()
                .zip(labels)
                .filter(|(_, &l)| l == class)
                .map(|(&s, _)| s)
                .collect();
            let mean_members = if members.is_empty() {
                0.0
            } else {
                members.iter().sum::<f64>() / members.len() as f64
            };
            let direction = if corr > DIRECTION_CORR_THRESHOLD {
                Direction::OverUtilized
            } else if corr < -DIRECTION_CORR_THRESHOLD {
                Direction::UnderUtilized
            } else {
                Direction::Neutral
            };
            FeatureInfluence {
                feature: f,
                mean_abs_shap: mean_abs,
                shap_value_correlation: corr,
                mean_shap_on_members: mean_members,
                direction,
            }
        })
        .collect();
    influences.sort_by(|a, b| {
        b.mean_abs_shap
            .partial_cmp(&a.mean_abs_shap)
            .expect("finite")
    });
    ClassExplanation { class, influences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treeshap::forest_shap_batch;
    use icn_forest::{ForestConfig, RandomForest, TrainSet};
    use icn_stats::Rng;

    /// Class 1 ⇔ feature 0 high AND feature 1 low; feature 2 is noise.
    fn setup() -> (RandomForest, TrainSet) {
        let mut rng = Rng::seed_from(42);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..240 {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            let c = rng.uniform(0.0, 1.0);
            rows.push(vec![a, b, c]);
            labels.push(usize::from(a > 0.6 && b < 0.4));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 25,
                ..ForestConfig::default()
            },
        );
        (forest, ts)
    }

    /// Explains `class` from the all-class batch, as stage 3 does.
    fn explain(forest: &RandomForest, ts: &TrainSet, class: usize) -> ClassExplanation {
        let shap = forest_shap_batch(forest, &ts.x);
        explain_class(&shap[class], &ts.x, &ts.y, class)
    }

    #[test]
    fn informative_features_rank_first() {
        let (forest, ts) = setup();
        let ex = explain(&forest, &ts, 1);
        let top2: Vec<usize> = ex.top(2).iter().map(|i| i.feature).collect();
        assert!(top2.contains(&0) && top2.contains(&1), "top2 {top2:?}");
        // The noise feature ranks last.
        assert_eq!(ex.influences.last().unwrap().feature, 2);
    }

    #[test]
    fn directions_match_construction() {
        let (forest, ts) = setup();
        let ex = explain(&forest, &ts, 1);
        let by_feature = |f: usize| {
            ex.influences
                .iter()
                .find(|i| i.feature == f)
                .expect("feature present")
        };
        assert_eq!(by_feature(0).direction, Direction::OverUtilized);
        assert_eq!(by_feature(1).direction, Direction::UnderUtilized);
    }

    #[test]
    fn members_receive_positive_shap() {
        let (forest, ts) = setup();
        let ex = explain(&forest, &ts, 1);
        // On actual members, the top feature pushes towards the class.
        assert!(ex.top(1)[0].mean_shap_on_members > 0.0);
    }

    #[test]
    fn complementary_class_mirrors_direction() {
        let (forest, ts) = setup();
        // For the binary complement (class 0), feature 0 should be
        // negative-direction: high values push *away* from class 0.
        let ex0 = explain(&forest, &ts, 0);
        let f0 = ex0.influences.iter().find(|i| i.feature == 0).unwrap();
        assert_eq!(f0.direction, Direction::UnderUtilized);
    }

    #[test]
    fn top_k_clamps() {
        let (forest, ts) = setup();
        let ex = explain(&forest, &ts, 1);
        assert_eq!(ex.top(99).len(), 3);
        assert_eq!(ex.top(1).len(), 1);
    }
}
