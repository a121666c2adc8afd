//! Stratified k-fold cross-validation.
//!
//! The paper's surrogate is trusted because it generalises the clustering
//! (the outdoor antennas of Section 5.3 are unseen data). OOB error is one
//! generalisation estimate; stratified k-fold CV is the sturdier second
//! opinion used by the B4 ablation — stratification matters because the
//! cluster sizes are very unbalanced (963 vs 178 antennas at full scale).

use crate::data::TrainSet;
use crate::forest::{ForestConfig, RandomForest};
use crate::metrics::{accuracy, macro_f1};
use icn_stats::{Matrix, Rng};

/// Result of one cross-validation run.
#[derive(Clone, Debug)]
pub struct CvResult {
    /// Per-fold accuracy on the held-out fold.
    pub fold_accuracy: Vec<f64>,
    /// Per-fold macro-F1 on the held-out fold.
    pub fold_macro_f1: Vec<f64>,
}

impl CvResult {
    /// Mean held-out accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        self.fold_accuracy.iter().sum::<f64>() / self.fold_accuracy.len() as f64
    }

    /// Mean held-out macro-F1.
    pub fn mean_macro_f1(&self) -> f64 {
        self.fold_macro_f1.iter().sum::<f64>() / self.fold_macro_f1.len() as f64
    }
}

/// Splits sample indices into `k` stratified folds: each fold receives a
/// proportional share of every class, in shuffled order.
///
/// # Panics
/// If `k < 2` or `k` exceeds the size of the smallest class.
fn stratified_folds(y: &[usize], k: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    assert!(k >= 2, "stratified_folds: need k ≥ 2");
    let n_classes = y.iter().copied().max().map_or(0, |m| m + 1);
    // Bucket indices by class, shuffle each bucket, deal round-robin.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &c) in y.iter().enumerate() {
        buckets[c].push(i);
    }
    for b in &mut buckets {
        assert!(
            b.is_empty() || b.len() >= k,
            "stratified_folds: class with {} samples cannot fill {} folds",
            b.len(),
            k
        );
        rng.shuffle(b);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for bucket in buckets {
        for (pos, idx) in bucket.into_iter().enumerate() {
            folds[pos % k].push(idx);
        }
    }
    folds
}

/// Runs stratified k-fold CV of a random forest on `ts`.
pub fn cross_validate(ts: &TrainSet, cfg: &ForestConfig, k: usize, seed: u64) -> CvResult {
    let mut rng = Rng::seed_from(seed);
    let folds = stratified_folds(&ts.y, k, &mut rng);
    let mut fold_accuracy = Vec::with_capacity(k);
    let mut fold_macro_f1 = Vec::with_capacity(k);
    for test_fold in &folds {
        let test_set: std::collections::HashSet<usize> = test_fold.iter().copied().collect();
        let train_idx: Vec<usize> = (0..ts.len()).filter(|i| !test_set.contains(i)).collect();
        // Build the training subset.
        let train_x = ts.x.select_rows(&train_idx);
        let train_y: Vec<usize> = train_idx.iter().map(|&i| ts.y[i]).collect();
        let sub = TrainSet {
            x: train_x,
            y: train_y,
            n_classes: ts.n_classes,
        };
        let forest = RandomForest::fit(&sub, cfg);
        // Evaluate on the held-out fold.
        let test_x: Matrix = ts.x.select_rows(test_fold);
        let truth: Vec<usize> = test_fold.iter().map(|&i| ts.y[i]).collect();
        let pred = forest.predict_batch(&test_x);
        fold_accuracy.push(accuracy(&truth, &pred));
        fold_macro_f1.push(macro_f1(&truth, &pred, ts.n_classes));
    }
    CvResult {
        fold_accuracy,
        fold_macro_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{MaxFeatures, TreeConfig};

    fn blobs() -> TrainSet {
        let mut rng = Rng::seed_from(3);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)];
        // Unbalanced classes, like the study's clusters.
        for (c, &(x, y)) in centers.iter().enumerate() {
            for _ in 0..(12 + 10 * c) {
                rows.push(vec![rng.normal(x, 0.5), rng.normal(y, 0.5)]);
                labels.push(c);
            }
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn folds_partition_everything() {
        let ts = blobs();
        let mut rng = Rng::seed_from(1);
        let folds = stratified_folds(&ts.y, 4, &mut rng);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        let ts = blobs();
        let mut rng = Rng::seed_from(2);
        let k = 4;
        let folds = stratified_folds(&ts.y, k, &mut rng);
        for fold in &folds {
            for c in 0..3 {
                let total = ts.y.iter().filter(|&&y| y == c).count();
                let in_fold = fold.iter().filter(|&&i| ts.y[i] == c).count();
                // Proportional within one sample.
                let expected = total as f64 / k as f64;
                assert!(
                    (in_fold as f64 - expected).abs() <= 1.0,
                    "class {c}: {in_fold} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    fn cv_accuracy_high_on_separable_data() {
        let ts = blobs();
        let cfg = ForestConfig {
            n_trees: 15,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: 5,
        };
        let cv = cross_validate(&ts, &cfg, 4, 7);
        assert_eq!(cv.fold_accuracy.len(), 4);
        assert!(cv.mean_accuracy() > 0.9, "acc {}", cv.mean_accuracy());
        assert!(cv.mean_macro_f1() > 0.9, "f1 {}", cv.mean_macro_f1());
    }

    #[test]
    fn cv_deterministic() {
        let ts = blobs();
        let cfg = ForestConfig {
            n_trees: 5,
            seed: 9,
            ..ForestConfig::default()
        };
        let a = cross_validate(&ts, &cfg, 3, 11);
        let b = cross_validate(&ts, &cfg, 3, 11);
        assert_eq!(a.fold_accuracy, b.fold_accuracy);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_many_folds_for_small_class_panics() {
        let ts = TrainSet::new(
            Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]),
            vec![0, 0, 0, 1],
        );
        stratified_folds(&ts.y, 3, &mut Rng::seed_from(0));
    }

    #[test]
    #[should_panic(expected = "need k")]
    fn k1_panics() {
        let ts = blobs();
        stratified_folds(&ts.y, 1, &mut Rng::seed_from(0));
    }
}
