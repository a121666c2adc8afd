//! Training-set container and sampling helpers.

use icn_stats::{Matrix, Rng};

/// A labelled training set: feature matrix plus dense class labels.
#[derive(Clone, Debug)]
pub struct TrainSet {
    /// Feature matrix (rows = samples).
    pub x: Matrix,
    /// Class label per row, dense in `0..n_classes`.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

impl TrainSet {
    /// Builds a training set, inferring `n_classes` as `max(y) + 1`.
    ///
    /// # Panics
    /// If lengths mismatch, the set is empty, or features are non-finite.
    pub fn new(x: Matrix, y: Vec<usize>) -> TrainSet {
        assert_eq!(x.rows(), y.len(), "TrainSet: row/label mismatch");
        assert!(x.rows() > 0, "TrainSet: empty");
        assert!(!x.has_non_finite(), "TrainSet: non-finite features");
        let n_classes = y.iter().copied().max().expect("non-empty") + 1;
        TrainSet { x, y, n_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no samples (never, by construction); the
    /// companion clippy requires of a public `len`.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    pub(crate) fn num_features(&self) -> usize {
        self.x.cols()
    }

    /// Draws a bootstrap sample (with replacement) of the row indices and
    /// returns `(in_bag, out_of_bag)` index lists. OOB rows power the
    /// forest's out-of-bag error estimate.
    pub fn bootstrap(&self, rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
        let n = self.len();
        let mut in_bag = Vec::with_capacity(n);
        let mut chosen = vec![false; n];
        for _ in 0..n {
            let i = rng.index(n);
            in_bag.push(i);
            chosen[i] = true;
        }
        let oob = (0..n).filter(|&i| !chosen[i]).collect();
        (in_bag, oob)
    }

    /// Class distribution (counts) over a set of row indices.
    pub(crate) fn class_counts(&self, rows: &[usize]) -> Vec<f64> {
        let mut c = vec![0.0; self.n_classes];
        for &r in rows {
            c[self.y[r]] += 1.0;
        }
        c
    }
}

/// Gini impurity of a class-count vector: `1 − Σ p²`.
pub fn gini(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c / total;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrainSet {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 2.0],
            vec![3.0, 1.0],
        ]);
        TrainSet::new(x, vec![0, 0, 1, 2])
    }

    #[test]
    fn infers_class_count() {
        assert_eq!(tiny().n_classes, 3);
        assert_eq!(tiny().len(), 4);
        assert_eq!(tiny().num_features(), 2);
    }

    #[test]
    #[should_panic(expected = "row/label mismatch")]
    fn mismatch_panics() {
        TrainSet::new(Matrix::zeros(2, 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_features_panic() {
        let mut x = Matrix::zeros(2, 2);
        x.set(0, 0, f64::NAN);
        TrainSet::new(x, vec![0, 1]);
    }

    #[test]
    fn bootstrap_covers_and_excludes() {
        let ts = tiny();
        let mut rng = Rng::seed_from(3);
        let (in_bag, oob) = ts.bootstrap(&mut rng);
        assert_eq!(in_bag.len(), ts.len());
        // OOB and in-bag are disjoint.
        for o in &oob {
            assert!(!in_bag.contains(o));
        }
        // Union of distinct in-bag rows and OOB is the full set.
        let mut distinct = in_bag.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len() + oob.len(), ts.len());
    }

    #[test]
    fn class_counts_per_rows() {
        let ts = tiny();
        assert_eq!(ts.class_counts(&[0, 1, 2, 3]), vec![2.0, 1.0, 1.0]);
        assert_eq!(ts.class_counts(&[2, 2]), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[4.0, 0.0]), 0.0); // pure
        assert!((gini(&[2.0, 2.0]) - 0.5).abs() < 1e-12); // balanced binary
        assert!((gini(&[1.0, 1.0, 1.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(gini(&[0.0, 0.0]), 0.0); // empty
    }
}
