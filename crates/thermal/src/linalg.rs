//! Minimal dense linear algebra for the small thermal networks
//! (4×4 for the steady-state and backward-Euler solves, and the
//! symmetric eigensolve behind the exact window map).
//!
//! Everything here works on fixed-size stack arrays: the hot integration
//! loop must not heap-allocate. Factoring and solving are split —
//! [`lu_factor`] does the O(n³) elimination once and [`LuFactors::solve`]
//! replays it against any right-hand side in O(n²) — so a backward-Euler
//! step matrix can be factored once per operating point and reused for
//! thousands of steps.
//!
//! The arithmetic (pivot selection, elimination order, the zero-factor
//! skip) reproduces plain Gaussian elimination with partial pivoting
//! operation for operation, so a factor-then-solve yields bitwise the
//! same answer as a one-shot elimination over the same system.

/// A PA = LU factorization of an `N × N` matrix with partial pivoting.
///
/// `lu` packs both triangles: the strict lower triangle holds the
/// elimination multipliers (the unit diagonal of `L` is implicit) and
/// the upper triangle, diagonal included, holds `U`. `perm[i]` is the
/// original row index that ended up in position `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LuFactors<const N: usize> {
    lu: [[f64; N]; N],
    perm: [usize; N],
}

/// Factors `a` by Gaussian elimination with partial pivoting.
///
/// Returns `None` when the matrix is numerically singular.
pub(crate) fn lu_factor<const N: usize>(mut a: [[f64; N]; N]) -> Option<LuFactors<N>> {
    let mut perm = [0usize; N];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }

    for col in 0..N {
        // Partial pivot: bring the largest remaining entry to the diagonal.
        let pivot_row = (col..N)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("matrix entries are finite")
            })
            .expect("non-empty column");
        if a[pivot_row][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot_row);
        perm.swap(col, pivot_row);

        let pivot = a[col][col];
        for row in col + 1..N {
            let factor = a[row][col] / pivot;
            // The sub-diagonal slot is dead as far as U is concerned;
            // store the multiplier there for the forward substitution.
            a[row][col] = factor;
            if factor == 0.0 {
                continue;
            }
            // Split the borrow: the pivot row is disjoint from `row`.
            let (head, tail) = a.split_at_mut(row);
            let pivot_row_data = &head[col];
            let target_row = &mut tail[0];
            for (t, p) in target_row[col + 1..N]
                .iter_mut()
                .zip(&pivot_row_data[col + 1..N])
            {
                *t -= factor * p;
            }
        }
    }

    Some(LuFactors { lu: a, perm })
}

impl<const N: usize> LuFactors<N> {
    /// Solves `A x = b` against the stored factorization.
    pub(crate) fn solve(&self, b: [f64; N]) -> [f64; N] {
        // Permute the right-hand side the way the pivoting permuted the
        // rows, then replay the eliminations column by column — the same
        // order interleaved Gaussian elimination applies them (and with
        // the same zero-factor skips, so even signed zeros agree).
        let mut y = [0.0; N];
        for (slot, &from) in y.iter_mut().zip(&self.perm) {
            *slot = b[from];
        }
        for col in 0..N {
            let y_col = y[col];
            for (row, y_row) in y.iter_mut().enumerate().skip(col + 1) {
                let factor = self.lu[row][col];
                if factor == 0.0 {
                    continue;
                }
                *y_row -= factor * y_col;
            }
        }

        // Back substitution against U.
        let mut x = [0.0; N];
        for row in (0..N).rev() {
            let mut acc = y[row];
            for (l, xv) in self.lu[row][row + 1..].iter().zip(&x[row + 1..]) {
                acc -= l * xv;
            }
            x[row] = acc / self.lu[row][row];
        }
        x
    }
}

/// Solves `A x = b` in one shot.
///
/// Returns `None` when the matrix is numerically singular.
pub(crate) fn solve<const N: usize>(a: [[f64; N]; N], b: [f64; N]) -> Option<[f64; N]> {
    Some(lu_factor(a)?.solve(b))
}

/// Cyclic Jacobi sweeps before [`symmetric_eigen`] gives up. Jacobi
/// converges quadratically, so a 4×4 needs a handful.
const JACOBI_SWEEPS: usize = 64;

/// Eigen-decomposes a symmetric matrix by cyclic Jacobi rotations:
/// returns `(λ, W)` with `S = W·diag(λ)·Wᵀ` and `W` orthonormal, the
/// eigenvector of `λ[k]` in column `k`. Jacobi keeps small eigenvalues
/// of a graded matrix to high relative accuracy, which is why the
/// thermal network's fast air mode and slow casting mode come out of
/// one 4×4 solve intact.
///
/// Returns `None` when an entry is not finite or the sweeps do not
/// converge.
pub(crate) fn symmetric_eigen<const N: usize>(
    mut s: [[f64; N]; N],
) -> Option<([f64; N], [[f64; N]; N])> {
    if s.iter().flatten().any(|x| !x.is_finite()) {
        return None;
    }
    let mut w = [[0.0; N]; N];
    for (i, row) in w.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for sweep in 0..JACOBI_SWEEPS {
        let mut rotated = false;
        for p in 0..N {
            for q in p + 1..N {
                let apq = s[p][q];
                // An off-diagonal entry below the rounding of both
                // diagonals it couples is already zero to working
                // precision (the Numerical Recipes threshold).
                let g = 100.0 * apq.abs();
                let (dp, dq) = (s[p][p].abs(), s[q][q].abs());
                if sweep > 3 && dp + g == dp && dq + g == dq {
                    s[p][q] = 0.0;
                    s[q][p] = 0.0;
                    continue;
                }
                if apq == 0.0 {
                    continue;
                }
                rotated = true;
                let theta = (s[q][q] - s[p][p]) / (2.0 * apq);
                let t = if theta.abs() > 1e150 {
                    0.5 / theta
                } else {
                    theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let sn = t * c;
                for row in s.iter_mut() {
                    let (kp, kq) = (row[p], row[q]);
                    row[p] = c * kp - sn * kq;
                    row[q] = sn * kp + c * kq;
                }
                let (head, tail) = s.split_at_mut(q);
                for (pk, qk) in head[p].iter_mut().zip(tail[0].iter_mut()) {
                    let (a, b) = (*pk, *qk);
                    *pk = c * a - sn * b;
                    *qk = sn * a + c * b;
                }
                s[p][q] = 0.0;
                s[q][p] = 0.0;
                for row in w.iter_mut() {
                    let (kp, kq) = (row[p], row[q]);
                    row[p] = c * kp - sn * kq;
                    row[q] = sn * kp + c * kq;
                }
            }
        }
        if !rotated {
            let mut lambda = [0.0; N];
            for (i, l) in lambda.iter_mut().enumerate() {
                *l = s[i][i];
            }
            return lambda.iter().all(|l| l.is_finite()).then_some((lambda, w));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-factorization solver this module replaced, kept verbatim
    /// as the bitwise reference: one-shot Gaussian elimination with
    /// partial pivoting over heap vectors.
    fn reference_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&i, &j| {
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .expect("matrix entries are finite")
                })
                .expect("non-empty column");
            if a[pivot_row][col].abs() < 1e-300 {
                return None;
            }
            a.swap(col, pivot_row);
            b.swap(col, pivot_row);

            let pivot = a[col][col];
            for row in col + 1..n {
                let factor = a[row][col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                let (head, tail) = a.split_at_mut(row);
                let (pivot_row_data, target_row) = (&head[col], &mut tail[0]);
                for (t, p) in target_row[col..n].iter_mut().zip(&pivot_row_data[col..n]) {
                    *t -= factor * p;
                }
                b[row] -= factor * b[col];
            }
        }

        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in row + 1..n {
                acc -= a[row][k] * x[k];
            }
            x[row] = acc / a[row][row];
        }
        Some(x)
    }

    #[test]
    fn solves_identity() {
        let a = [[1.0, 0.0], [0.0, 1.0]];
        let x = solve(a, [3.0, -4.0]).unwrap();
        assert_eq!(x, [3.0, -4.0]);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
        let a = [[2.0, 1.0], [1.0, 3.0]];
        let x = solve(a, [5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivots_on_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = [[0.0, 1.0], [1.0, 0.0]];
        let x = solve(a, [2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = [[1.0, 2.0], [2.0, 4.0]];
        assert!(solve(a, [1.0, 2.0]).is_none());
        assert!(lu_factor(a).is_none());
    }

    #[test]
    fn solves_4x4_thermal_like_system() {
        // A diagonally-dominant symmetric system like the thermal ones.
        let a = [
            [3.0, -1.0, -1.0, -0.5],
            [-1.0, 2.5, -0.5, 0.0],
            [-1.0, -0.5, 4.0, -1.0],
            [-0.5, 0.0, -1.0, 2.0],
        ];
        let b = [1.0, 2.0, 0.5, 1.5];
        let x = solve(a, b).unwrap();
        // Verify A x = b.
        for i in 0..4 {
            let got: f64 = (0..4).map(|j| a[i][j] * x[j]).sum();
            assert!((got - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn factorization_is_reusable_across_right_hand_sides() {
        let a = [
            [4.0, -1.0, 0.0, -0.3],
            [-1.0, 5.0, -2.0, 0.0],
            [0.0, -2.0, 6.0, -1.0],
            [-0.3, 0.0, -1.0, 3.0],
        ];
        let lu = lu_factor(a).unwrap();
        for b in [[1.0, 0.0, 0.0, 0.0], [0.2, -3.0, 7.5, 0.4], [9.0; 4]] {
            assert_eq!(Some(lu.solve(b)), solve(a, b));
        }
    }

    #[test]
    fn jacobi_diagonalizes_a_graded_symmetric_matrix() {
        // Entries spanning eight decades, like the scaled thermal
        // network's: S·w = λ·w column by column, W orthonormal.
        let s = [
            [4.0e3, -2.0e1, -3.0e-1, -5.0e1],
            [-2.0e1, 2.5e0, -1.0e-2, 0.0],
            [-3.0e-1, -1.0e-2, 4.0e-2, -1.0e-3],
            [-5.0e1, 0.0, -1.0e-3, 9.0e-1],
        ];
        let (lambda, w) = symmetric_eigen(s).unwrap();
        for k in 0..4 {
            for i in 0..4 {
                let sw: f64 = (0..4).map(|j| s[i][j] * w[j][k]).sum();
                assert!((sw - lambda[k] * w[i][k]).abs() < 1e-9 * 4.0e3, "pair {k} row {i}");
            }
            for m in 0..4 {
                let dot: f64 = (0..4).map(|i| w[i][k] * w[i][m]).sum();
                let want = if k == m { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-12, "columns {k}, {m}: {dot}");
            }
        }
        // The trace and determinant survive the rotations.
        let trace: f64 = lambda.iter().sum();
        assert!((trace - (4.0e3 + 2.5 + 4.0e-2 + 9.0e-1)).abs() < 1e-9);
    }

    #[test]
    fn jacobi_refuses_non_finite_entries() {
        for bad in [f64::NAN, f64::INFINITY] {
            let s = [[1.0, bad], [bad, 2.0]];
            assert!(symmetric_eigen(s).is_none(), "{bad}");
        }
        assert_eq!(
            symmetric_eigen([[3.0, 0.0], [0.0, 1.0]]),
            Some(([3.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])),
            "a diagonal matrix is its own decomposition"
        );
    }

    /// Matrix entries with a healthy dose of exact zeros, to exercise
    /// the pivot swaps and the zero-factor skips.
    fn entry() -> impl Strategy<Value = f64> {
        prop_oneof![-100.0f64..100.0, -1.0e6f64..1.0e6, Just(0.0)]
    }

    // The factor/solve split must be *bitwise* indistinguishable from
    // the one-shot elimination it replaced: every result file in
    // `results/` depends on it.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_reference_elimination_bitwise(
            flat in collection::vec(entry(), 16..17),
            b_vec in collection::vec(entry(), 4..5),
        ) {
            let mut a = [[0.0; 4]; 4];
            for (i, row) in a.iter_mut().enumerate() {
                row.copy_from_slice(&flat[i * 4..(i + 1) * 4]);
            }
            let mut b = [0.0; 4];
            b.copy_from_slice(&b_vec);
            let a_vec: Vec<Vec<f64>> = a.iter().map(|r| r.to_vec()).collect();
            let reference = reference_solve(a_vec, b.to_vec());
            let fast = solve(a, b);
            match (reference, fast) {
                (None, None) => {}
                (Some(want), Some(got)) => {
                    for (w, g) in want.iter().zip(&got) {
                        prop_assert_eq!(w.to_bits(), g.to_bits(),
                            "bitwise mismatch: {} vs {}", w, g);
                    }
                }
                (want, got) => prop_assert!(false, "singularity disagreement: {want:?} vs {got:?}"),
            }
        }
    }
}
