//! Classification metrics: accuracy, confusion matrix, per-class and
//! macro-averaged precision / recall / F1.
//!
//! Used by the surrogate-fidelity experiment (B4): the paper's pipeline is
//! only trustworthy if the random forest faithfully reproduces the
//! clustering labels before SHAP explains it.

/// Confusion matrix: `m[truth][pred]` counts.
pub(crate) fn confusion_matrix(
    truth: &[usize],
    pred: &[usize],
    n_classes: usize,
) -> Vec<Vec<usize>> {
    assert_eq!(truth.len(), pred.len(), "confusion: length mismatch");
    let mut m = vec![vec![0usize; n_classes]; n_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        assert!(
            t < n_classes && p < n_classes,
            "confusion: label out of range"
        );
        m[t][p] += 1;
    }
    m
}

/// Overall accuracy.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "accuracy: length mismatch");
    assert!(!truth.is_empty(), "accuracy: empty input");
    let hits = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    hits as f64 / truth.len() as f64
}

/// Per-class precision, recall and F1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ClassScore {
    /// Precision: TP / (TP + FP); 0 when the class is never predicted.
    pub precision: f64,
    /// Recall: TP / (TP + FN); 0 when the class never occurs.
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f64,
}

/// Computes per-class scores from a confusion matrix.
pub(crate) fn class_scores(confusion: &[Vec<usize>]) -> Vec<ClassScore> {
    let k = confusion.len();
    (0..k)
        .map(|c| {
            let tp = confusion[c][c] as f64;
            let fn_: f64 = (0..k)
                .filter(|&j| j != c)
                .map(|j| confusion[c][j] as f64)
                .sum();
            let fp: f64 = (0..k)
                .filter(|&i| i != c)
                .map(|i| confusion[i][c] as f64)
                .sum();
            let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
            let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
            let f1 = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
            ClassScore {
                precision,
                recall,
                f1,
            }
        })
        .collect()
}

/// Unweighted mean of per-class F1 scores.
pub(crate) fn macro_f1(truth: &[usize], pred: &[usize], n_classes: usize) -> f64 {
    let scores = class_scores(&confusion_matrix(truth, pred, n_classes));
    scores.iter().map(|s| s.f1).sum::<f64>() / n_classes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = vec![0, 1, 2, 1];
        assert_eq!(accuracy(&y, &y), 1.0);
        assert_eq!(macro_f1(&y, &y, 3), 1.0);
        let cm = confusion_matrix(&y, &y, 3);
        assert_eq!(cm[1][1], 2);
        assert_eq!(cm[0][1], 0);
    }

    #[test]
    fn hand_computed_confusion_and_scores() {
        let truth = vec![0, 0, 0, 1, 1, 2];
        let pred_ = vec![0, 0, 1, 1, 0, 2];
        let cm = confusion_matrix(&truth, &pred_, 3);
        assert_eq!(cm, vec![vec![2, 1, 0], vec![1, 1, 0], vec![0, 0, 1]]);
        let scores = class_scores(&cm);
        // Class 0: tp=2, fp=1, fn=1 ⇒ p=2/3, r=2/3, f1=2/3.
        assert!((scores[0].precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((scores[0].recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((scores[0].f1 - 2.0 / 3.0).abs() < 1e-12);
        // Class 2 perfect.
        assert_eq!(scores[2].f1, 1.0);
        assert!((accuracy(&truth, &pred_) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn absent_class_scores_zero() {
        let truth = vec![0, 0];
        let pred_ = vec![0, 0];
        let scores = class_scores(&confusion_matrix(&truth, &pred_, 2));
        assert_eq!(scores[1].precision, 0.0);
        assert_eq!(scores[1].recall, 0.0);
        assert_eq!(scores[1].f1, 0.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_panics() {
        confusion_matrix(&[0, 3], &[0, 0], 2);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_accuracy_panics() {
        accuracy(&[], &[]);
    }

    #[test]
    fn accuracy_bounds_and_confusion_mass() {
        use crate::{ForestConfig, RandomForest, TrainSet};
        use icn_stats::check::{cases, len_in};
        use icn_stats::Matrix;
        cases(32, |case, rng| {
            let n = len_in(rng, 10, 60);
            let d = len_in(rng, 1, 5);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.uniform(0.0, 1.0)).collect())
                .collect();
            let mut labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
            labels[0] = 0;
            labels[1] = 1;
            let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
            let forest = RandomForest::fit(
                &ts,
                &ForestConfig {
                    n_trees: 3,
                    seed: rng.next_u64(),
                    ..ForestConfig::default()
                },
            );
            let preds = forest.predict_batch(&ts.x);
            let acc = accuracy(&ts.y, &preds);
            assert!((0.0..=1.0).contains(&acc), "case {case}");
            let cm = confusion_matrix(&ts.y, &preds, ts.n_classes);
            let mass: usize = cm.iter().flatten().sum();
            assert_eq!(mass, ts.len(), "case {case}");
            let f1 = macro_f1(&ts.y, &preds, ts.n_classes);
            assert!((0.0..=1.0).contains(&f1), "case {case}");
        });
    }
}
