//! Small dense linear algebra: weighted least squares by Gaussian
//! elimination with partial pivoting.
//!
//! KernelSHAP estimates Shapley values by fitting a weighted linear model
//! over sampled coalitions (Eq. 3 of the paper); this solver handles the
//! resulting normal equations. Sizes are tiny (M × M with M ≤ a few dozen
//! features), so a textbook O(M³) elimination is entirely adequate.

/// Solves `A x = b` for square `A` (row-major, `n × n`) by Gaussian
/// elimination with partial pivoting. Returns `None` for (numerically)
/// singular systems.
pub(crate) fn solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n, "solve: A shape mismatch");
    assert_eq!(b.len(), n, "solve: b length mismatch");
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        let mut best = m[col * n + col].abs();
        for r in (col + 1)..n {
            let v = m[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if piv != col {
            for c in 0..n {
                m.swap(col * n + c, piv * n + c);
            }
            rhs.swap(col, piv);
        }
        // Eliminate below.
        let d = m[col * n + col];
        for r in (col + 1)..n {
            let factor = m[r * n + col] / d;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                m[r * n + c] -= factor * m[col * n + c];
            }
            rhs[r] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut s = rhs[col];
        for c in (col + 1)..n {
            s -= m[col * n + c] * x[c];
        }
        x[col] = s / m[col * n + col];
    }
    Some(x)
}

/// Weighted least squares: minimises `Σ_i w_i (y_i − z_iᵀ β)²` over rows
/// `z_i` of the `rows × p` design matrix. Solves the normal equations
/// `(ZᵀWZ) β = ZᵀW y`. Returns `None` when the system is singular.
pub(crate) fn weighted_least_squares(z: &[Vec<f64>], y: &[f64], w: &[f64]) -> Option<Vec<f64>> {
    let rows = z.len();
    assert!(rows > 0, "wls: empty design");
    assert_eq!(y.len(), rows, "wls: y length mismatch");
    assert_eq!(w.len(), rows, "wls: w length mismatch");
    let p = z[0].len();
    let mut ata = vec![0.0f64; p * p];
    let mut atb = vec![0.0f64; p];
    for i in 0..rows {
        debug_assert_eq!(z[i].len(), p, "wls: ragged design");
        let wi = w[i];
        for a in 0..p {
            let za = z[i][a] * wi;
            atb[a] += za * y[i];
            for b in 0..p {
                ata[a * p + b] += za * z[i][b];
            }
        }
    }
    solve(&ata, &atb, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve(&a, &[3.0, -2.0], 2).unwrap();
        assert_eq!(x, vec![3.0, -2.0]);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x - y = 1 → x = 2, y = 1.
        let a = vec![2.0, 1.0, 1.0, -1.0];
        let x = solve(&a, &[5.0, 1.0], 2).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // First pivot is zero; requires a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let x = solve(&a, &[7.0, 9.0], 2).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn singular_returns_none() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(solve(&a, &[1.0, 2.0], 2).is_none());
    }

    #[test]
    fn wls_recovers_exact_linear_model() {
        // y = 3 z0 - 2 z1, arbitrary positive weights.
        let z = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let y: Vec<f64> = z.iter().map(|r| 3.0 * r[0] - 2.0 * r[1]).collect();
        let w = vec![0.5, 2.0, 1.0, 3.0];
        let beta = weighted_least_squares(&z, &y, &w).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9);
        assert!((beta[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn wls_weights_matter() {
        // Two inconsistent observations of a constant; the heavier wins.
        let z = vec![vec![1.0], vec![1.0]];
        let y = vec![0.0, 10.0];
        let beta = weighted_least_squares(&z, &y, &[1.0, 9.0]).unwrap();
        assert!((beta[0] - 9.0).abs() < 1e-9);
    }
}
