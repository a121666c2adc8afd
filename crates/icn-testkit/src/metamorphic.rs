//! Metamorphic-testing helpers.
//!
//! Metamorphic tests assert that a pipeline stage *commutes* with an input
//! transformation whose effect on the output is known exactly: permuting
//! antenna rows must permute cluster labels the same way, uniformly
//! rescaling a row must leave its RCA untouched, relabeling services must
//! relabel SHAP attributions. This module provides the transformations and
//! the equivalence predicates; the per-crate `tests/stage*_oracles.rs`
//! files state the invariants.

use icn_forest::RandomForest;
use icn_stats::{Matrix, Rng};

/// A uniformly random permutation of `0..n` (Fisher–Yates over the
/// workspace's deterministic [`Rng`]).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.index(i + 1);
        p.swap(i, j);
    }
    p
}

/// The inverse permutation: `invert(p)[p[i]] == i`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Applies a permutation to a slice: `out[i] = v[perm[i]]`.
pub fn permute_slice<T: Clone>(v: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&p| v[p].clone()).collect()
}

/// Row permutation of a matrix: `out.row(i) == m.row(perm[i])`.
pub fn permute_rows(m: &Matrix, perm: &[usize]) -> Matrix {
    assert_eq!(perm.len(), m.rows(), "permute_rows: length mismatch");
    m.select_rows(perm)
}

/// Column permutation of a matrix: `out[(i, j)] == m[(i, perm[j])]`.
pub fn permute_cols(m: &Matrix, perm: &[usize]) -> Matrix {
    assert_eq!(perm.len(), m.cols(), "permute_cols: length mismatch");
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        for (j, &p) in perm.iter().enumerate() {
            out.set(i, j, m.get(i, p));
        }
    }
    out
}

/// Renames label *values* through a permutation: label `l` becomes
/// `perm[l]`. (Contrast with [`permute_slice`], which moves positions.)
pub fn permute_labels(labels: &[usize], perm: &[usize]) -> Vec<usize> {
    labels.iter().map(|&l| perm[l]).collect()
}

/// Multiplies each row `i` of `m` by `factors[i]` — the popularity-bias
/// transformation that RCA/RSCA must be invariant to.
pub fn scale_rows(m: &Matrix, factors: &[f64]) -> Matrix {
    assert_eq!(factors.len(), m.rows(), "scale_rows: length mismatch");
    let mut out = m.clone();
    for i in 0..out.rows() {
        let f = factors[i];
        for v in out.row_mut(i) {
            *v *= f;
        }
    }
    out
}

/// `true` when two labelings describe the same partition of the index set
/// (equal up to a bijective renaming of label values).
pub fn same_partition(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    use std::collections::HashMap;
    let mut fwd: HashMap<usize, usize> = HashMap::new();
    let mut bwd: HashMap<usize, usize> = HashMap::new();
    for (&la, &lb) in a.iter().zip(b) {
        if *fwd.entry(la).or_insert(lb) != lb || *bwd.entry(lb).or_insert(la) != la {
            return false;
        }
    }
    true
}

/// Rewrites every split in a fitted forest so that it reads its feature
/// from the permuted column layout produced by [`permute_cols`]: if
/// `x'[j] = x[perm[j]]`, a split on original feature `f` becomes a split
/// on `invert(perm)[f]`, and the two forests predict identically on
/// correspondingly permuted inputs. Used for the service-relabel
/// equivariance of SHAP attributions.
pub fn permute_forest_features(forest: &RandomForest, perm: &[usize]) -> RandomForest {
    assert_eq!(
        perm.len(),
        forest.n_features,
        "permute_forest_features: length mismatch"
    );
    let inv = invert_permutation(perm);
    let mut out = forest.clone();
    for tree in &mut out.trees {
        for (feature, &left) in tree.feature.iter_mut().zip(&tree.left) {
            if left != u32::MAX {
                *feature = inv[*feature as usize] as u32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijective() {
        icn_stats::check::cases(16, |_, rng| {
            let n = icn_stats::check::len_in(rng, 1, 40);
            let p = permutation(rng, n);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            let inv = invert_permutation(&p);
            for i in 0..n {
                assert_eq!(inv[p[i]], i);
            }
        });
    }

    #[test]
    fn permute_rows_then_inverse_is_identity() {
        icn_stats::check::cases(8, |_, rng| {
            let m = icn_stats::check::uniform_matrix(rng, 6, 4, -1.0, 1.0);
            let p = permutation(rng, 6);
            let back = permute_rows(&permute_rows(&m, &p), &invert_permutation(&p));
            assert_eq!(back.as_slice(), m.as_slice());
        });
    }

    #[test]
    fn permute_cols_moves_columns() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let p = vec![2, 0, 1];
        let out = permute_cols(&m, &p);
        assert_eq!(out.as_slice(), &[3.0, 1.0, 2.0, 6.0, 4.0, 5.0]);
    }

    #[test]
    fn same_partition_accepts_renaming_rejects_splits() {
        assert!(same_partition(&[0, 0, 1, 2], &[5, 5, 7, 9]));
        assert!(!same_partition(&[0, 0, 1, 2], &[0, 1, 1, 2]));
        assert!(!same_partition(&[0, 0, 1, 1], &[0, 0, 0, 1]));
        assert!(!same_partition(&[0, 1], &[0, 1, 1]));
    }

    #[test]
    fn scale_rows_scales_each_row_independently() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = scale_rows(&m, &[2.0, 10.0]);
        assert_eq!(out.as_slice(), &[2.0, 4.0, 30.0, 40.0]);
    }
}
