//! Scalar and block tridiagonal solvers (Thomas algorithm).
//!
//! Line-implicit discretizations — the VSL normal sweep, the PNS station
//! solve, point-implicit NS lines — all reduce to tridiagonal systems whose
//! entries are either scalars or small dense blocks (block size = number of
//! coupled unknowns). The block variant reuses the LU kernels from
//! [`crate::linalg`].

use crate::linalg::{lu_factor, lu_solve, LinalgError};
use crate::telemetry::{counters, Counter};
use crate::trace;

/// Solve a scalar tridiagonal system
/// `a[i]·x[i-1] + b[i]·x[i] + c[i]·x[i+1] = d[i]` in place; the solution
/// overwrites `d`. `a[0]` and `c[n-1]` are ignored.
///
/// ```
/// use aerothermo_numerics::tridiag::solve_tridiag;
/// // 2x = 2, x + 2y = 5  →  x = 1, y = 2.
/// let mut d = vec![2.0, 5.0];
/// solve_tridiag(&[0.0, 1.0], &[2.0, 2.0], &[0.0, 0.0], &mut d).unwrap();
/// assert!((d[0] - 1.0).abs() < 1e-12 && (d[1] - 2.0).abs() < 1e-12);
/// ```
///
/// # Errors
/// [`LinalgError::Singular`] when forward elimination hits a ~0 pivot, and
/// [`LinalgError::Dimension`] on length mismatch.
pub fn solve_tridiag(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) -> Result<(), LinalgError> {
    counters::add(Counter::TridiagSolves, 1);
    let _sp = trace::span("tridiag_solve");
    let n = d.len();
    if a.len() != n || b.len() != n || c.len() != n {
        return Err(LinalgError::Dimension);
    }
    if n == 0 {
        return Ok(());
    }
    let mut cp = vec![0.0; n];
    if b[0].abs() < 1e-300 {
        return Err(LinalgError::Singular(0));
    }
    cp[0] = c[0] / b[0];
    d[0] /= b[0];
    for i in 1..n {
        let denom = b[i] - a[i] * cp[i - 1];
        if denom.abs() < 1e-300 {
            return Err(LinalgError::Singular(i));
        }
        cp[i] = c[i] / denom;
        d[i] = (d[i] - a[i] * d[i - 1]) / denom;
    }
    for i in (0..n - 1).rev() {
        d[i] -= cp[i] * d[i + 1];
    }
    Ok(())
}

/// Block tridiagonal solver.
///
/// Solves `A[i]·x[i-1] + B[i]·x[i] + C[i]·x[i+1] = d[i]` where each `A`, `B`,
/// `C` entry is an `m × m` row-major block and each `d[i]`, `x[i]` an
/// `m`-vector. All blocks are stored concatenated: `a`, `b`, `c` have length
/// `n·m·m` and `d` length `n·m`. `A[0]` and `C[n-1]` are ignored. The solution
/// overwrites `d`.
///
/// This is block Thomas: forward-eliminate with a dense LU of the running
/// diagonal block, back-substitute with the stored `B⁻¹C` products.
///
/// # Errors
/// Fails when a diagonal block becomes singular or dimensions mismatch.
pub fn solve_block_tridiag(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &mut [f64],
    n: usize,
    m: usize,
) -> Result<(), LinalgError> {
    let _sp = trace::span("block_tridiag_solve");
    let mm = m * m;
    if a.len() != n * mm || b.len() != n * mm || c.len() != n * mm || d.len() != n * m {
        return Err(LinalgError::Dimension);
    }
    if n == 0 {
        return Ok(());
    }

    // Workspace: gamma[i] = B*⁻¹ C[i] (m×m per station), and the modified rhs
    // lives in d. B* is the Schur-complement diagonal block.
    let mut gamma = vec![0.0; n * mm];
    let mut bstar = vec![0.0; mm];
    let mut piv = vec![0usize; m];
    let mut col = vec![0.0; m];

    // Station 0.
    bstar.copy_from_slice(&b[0..mm]);
    lu_factor(&mut bstar, m, &mut piv)?;
    for j in 0..m {
        for (i, cv) in col.iter_mut().enumerate() {
            *cv = c[i * m + j];
        }
        lu_solve(&bstar, m, &piv, &mut col)?;
        for i in 0..m {
            gamma[i * m + j] = col[i];
        }
    }
    lu_solve(&bstar, m, &piv, &mut d[0..m])?;

    // Forward sweep.
    for k in 1..n {
        let ak = &a[k * mm..(k + 1) * mm];
        // B* = B[k] − A[k]·gamma[k−1]
        let gprev = &gamma[(k - 1) * mm..k * mm];
        for i in 0..m {
            for j in 0..m {
                let mut s = b[k * mm + i * m + j];
                for l in 0..m {
                    s -= ak[i * m + l] * gprev[l * m + j];
                }
                bstar[i * m + j] = s;
            }
        }
        lu_factor(&mut bstar, m, &mut piv)?;

        // d[k] ← B*⁻¹ (d[k] − A[k]·d[k−1])
        let (dprev, dcur) = d.split_at_mut(k * m);
        let dprev = &dprev[(k - 1) * m..];
        let dk = &mut dcur[..m];
        for i in 0..m {
            let mut s = dk[i];
            for l in 0..m {
                s -= ak[i * m + l] * dprev[l];
            }
            col[i] = s;
        }
        lu_solve(&bstar, m, &piv, &mut col)?;
        dk.copy_from_slice(&col);

        // gamma[k] = B*⁻¹ C[k]  (skip for the last station — unused)
        if k + 1 < n {
            for j in 0..m {
                for (i, cv) in col.iter_mut().enumerate() {
                    *cv = c[k * mm + i * m + j];
                }
                lu_solve(&bstar, m, &piv, &mut col)?;
                for i in 0..m {
                    gamma[k * mm + i * m + j] = col[i];
                }
            }
        }
    }

    // Back substitution: x[k] = d[k] − gamma[k]·x[k+1]
    for k in (0..n - 1).rev() {
        let (head, tail) = d.split_at_mut((k + 1) * m);
        let xk = &mut head[k * m..];
        let xnext = &tail[..m];
        let g = &gamma[k * mm..(k + 1) * mm];
        for i in 0..m {
            let mut s = xk[i];
            for l in 0..m {
                s -= g[i * m + l] * xnext[l];
            }
            xk[i] = s;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tridiag_matches_direct() {
        // -u'' = f on a grid; classic [1 -2 1] system with known solution.
        let n = 6;
        let a = vec![1.0; n];
        let b = vec![-2.0; n];
        let c = vec![1.0; n];
        // Choose x = i², then d = x[i-1] - 2x[i] + x[i+1] with boundary terms.
        let xexact: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let mut d = vec![0.0; n];
        for i in 0..n {
            let xm = if i > 0 { xexact[i - 1] } else { 0.0 };
            let xp = if i + 1 < n { xexact[i + 1] } else { 0.0 };
            d[i] = xm - 2.0 * xexact[i] + xp;
        }
        solve_tridiag(&a, &b, &c, &mut d).unwrap();
        for i in 0..n {
            assert!((d[i] - xexact[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn scalar_tridiag_n1() {
        let mut d = vec![10.0];
        solve_tridiag(&[0.0], &[5.0], &[0.0], &mut d).unwrap();
        assert!((d[0] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn block_tridiag_reduces_to_scalar_when_m1() {
        let n = 5;
        let a = vec![1.0; n];
        let b = vec![-3.0; n];
        let c = vec![1.0; n];
        let d0: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();

        let mut d_scalar = d0.clone();
        solve_tridiag(&a, &b, &c, &mut d_scalar).unwrap();

        let mut d_block = d0;
        solve_block_tridiag(&a, &b, &c, &mut d_block, n, 1).unwrap();

        for i in 0..n {
            assert!((d_scalar[i] - d_block[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn block_tridiag_2x2_verified_by_residual() {
        // Build a random-ish diagonally dominant block system and verify the
        // residual of the returned solution.
        let n = 4;
        let m = 2;
        let mm = m * m;
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = vec![0.0; n * mm];
        let mut b = vec![0.0; n * mm];
        let mut c = vec![0.0; n * mm];
        for k in 0..n {
            for e in 0..mm {
                a[k * mm + e] = next() * 0.3;
                c[k * mm + e] = next() * 0.3;
                b[k * mm + e] = next() * 0.3;
            }
            b[k * mm] += 4.0;
            b[k * mm + 3] += 4.0;
        }
        let d0: Vec<f64> = (0..n * m).map(|_| next()).collect();
        let mut x = d0.clone();
        solve_block_tridiag(&a, &b, &c, &mut x, n, m).unwrap();

        // residual
        for k in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                if k > 0 {
                    for l in 0..m {
                        s += a[k * mm + i * m + l] * x[(k - 1) * m + l];
                    }
                }
                for l in 0..m {
                    s += b[k * mm + i * m + l] * x[k * m + l];
                }
                if k + 1 < n {
                    for l in 0..m {
                        s += c[k * mm + i * m + l] * x[(k + 1) * m + l];
                    }
                }
                assert!((s - d0[k * m + i]).abs() < 1e-10, "k={k} i={i}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut d = vec![1.0, 2.0];
        assert!(matches!(
            solve_tridiag(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &mut d),
            Err(LinalgError::Dimension)
        ));
    }
}
