//! Ordering utilities: argsort, top-k, argmax.
//!
//! The SHAP analysis of the paper ranks services per cluster by mean
//! absolute Shapley value (Figure 5 shows the 25 most influential services);
//! these helpers implement the orderings used there and in report tables.

use std::cmp::Ordering;

/// Indices that would sort `xs` ascending. NaNs sort last, stably.
fn argsort(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| cmp_f64(xs[a], xs[b]));
    idx
}

/// Indices that would sort `xs` descending. NaNs sort last, stably.
pub fn argsort_desc(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| match (xs[a].is_nan(), xs[b].is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => cmp_f64(xs[b], xs[a]),
    });
    idx
}

/// The indices of the `k` largest values, in descending value order.
/// Returns all indices if `k >= xs.len()`.
pub fn top_k(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx = argsort_desc(xs);
    idx.truncate(k.min(xs.len()));
    idx
}

/// The indices of the `k` smallest values, in ascending value order.
pub fn bottom_k(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx = argsort(xs);
    idx.truncate(k.min(xs.len()));
    idx
}

/// Index of the maximum value (first on ties). Panics on an empty slice.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        // Push NaNs to the end regardless of direction.
        None => {
            if a.is_nan() && b.is_nan() {
                Ordering::Equal
            } else if a.is_nan() {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_basic() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(argsort(&xs), vec![1, 2, 0]);
        assert_eq!(argsort_desc(&xs), vec![0, 2, 1]);
    }

    #[test]
    fn argsort_nan_last() {
        let xs = [f64::NAN, 1.0, 0.5];
        assert_eq!(argsort(&xs), vec![2, 1, 0]);
        assert_eq!(argsort_desc(&xs), vec![1, 2, 0]);
    }

    #[test]
    fn top_and_bottom_k() {
        let xs = [10.0, 40.0, 20.0, 30.0];
        assert_eq!(top_k(&xs, 2), vec![1, 3]);
        assert_eq!(bottom_k(&xs, 2), vec![0, 2]);
        assert_eq!(top_k(&xs, 99).len(), 4);
    }

    #[test]
    fn argmax_first_on_ties() {
        let xs = [2.0, 5.0, 5.0, 1.0, 1.0];
        assert_eq!(argmax(&xs), 1);
    }

    #[test]
    #[should_panic(expected = "argmax of empty")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn argsort_is_permutation_and_sorted() {
        crate::check::cases(64, |case, rng| {
            let len = crate::check::len_in(rng, 1, 50);
            let xs = crate::check::uniform_vec(rng, len, -1e6, 1e6);
            let idx = argsort(&xs);
            let mut seen = idx.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..xs.len()).collect::<Vec<_>>(), "case {case}");
            for w in idx.windows(2) {
                assert!(xs[w[0]] <= xs[w[1]], "case {case}");
            }
        });
    }
}
