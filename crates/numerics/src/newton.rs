//! Damped Newton iteration for small nonlinear systems.
//!
//! The equilibrium-composition solver, the VSL station solve, and the stiff
//! chemistry integrator all need "solve F(x) = 0 for a handful of unknowns,
//! robustly". This module provides a line-searched Newton with a
//! finite-difference Jacobian fallback.

use crate::linalg::{solve_dense, LinalgError};
use crate::telemetry::{counters, Counter};
use crate::trace;

/// Outcome of a Newton solve.
#[derive(Debug, Clone)]
pub struct NewtonResult {
    /// Iterations actually used.
    pub iterations: usize,
    /// Final residual ∞-norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Failure modes of the Newton solver.
#[derive(Debug)]
pub enum NewtonError {
    /// Jacobian became singular.
    Singular(LinalgError),
    /// Residual failed to reach tolerance within the iteration budget.
    NotConverged {
        /// Final residual ∞-norm when the budget ran out.
        residual: f64,
    },
    /// The residual function produced a non-finite value at the initial guess.
    BadInitialPoint,
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewtonError::Singular(e) => write!(f, "newton: singular jacobian ({e})"),
            NewtonError::NotConverged { residual } => {
                write!(f, "newton: not converged, residual={residual:.3e}")
            }
            NewtonError::BadInitialPoint => write!(f, "newton: non-finite residual at x0"),
        }
    }
}

impl std::error::Error for NewtonError {}

/// Options controlling [`newton_solve`].
#[derive(Debug, Clone)]
pub struct NewtonOptions {
    /// Convergence tolerance on the residual ∞-norm.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Relative step used by the finite-difference Jacobian.
    pub fd_eps: f64,
    /// Minimum damping factor before the step is declared failed.
    pub min_lambda: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iter: 60,
            fd_eps: 1e-7,
            min_lambda: 1e-4,
        }
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Solve `F(x) = 0` with damped Newton and a forward-difference Jacobian.
///
/// `residual(x, f)` writes `F(x)` into `f`. `x` enters as the initial guess
/// and exits holding the solution. Armijo-style backtracking halves the step
/// until the residual norm decreases (or the damping floor is hit, in which
/// case the full step is accepted anyway — useful for mildly non-monotone
/// residuals near strong curvature).
///
/// # Errors
/// See [`NewtonError`].
pub fn newton_solve(
    mut residual: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonResult, NewtonError> {
    let _sp = trace::span("newton_solve");
    let n = x.len();
    let mut f = vec![0.0; n];
    let mut ftrial = vec![0.0; n];
    let mut jac = vec![0.0; n * n];
    let mut step = vec![0.0; n];
    let mut xpert = vec![0.0; n];

    residual(x, &mut f);
    if !f.iter().all(|v| v.is_finite()) {
        return Err(NewtonError::BadInitialPoint);
    }
    let mut fnorm = inf_norm(&f);

    // Flushes the iteration count to the global counter on every exit path.
    struct IterFlush(u64);
    impl Drop for IterFlush {
        fn drop(&mut self) {
            counters::add(Counter::NewtonIterations, self.0);
        }
    }
    let mut iter_flush = IterFlush(0);

    for it in 0..opts.max_iter {
        iter_flush.0 = it as u64;
        if fnorm <= opts.tol {
            return Ok(NewtonResult {
                iterations: it,
                residual: fnorm,
                converged: true,
            });
        }

        // Forward-difference Jacobian, column by column.
        for j in 0..n {
            xpert.copy_from_slice(x);
            let h = opts.fd_eps * x[j].abs().max(1e-8);
            xpert[j] += h;
            residual(&xpert, &mut ftrial);
            for i in 0..n {
                jac[i * n + j] = (ftrial[i] - f[i]) / h;
            }
        }

        // Newton step: J·dx = −F
        step.copy_from_slice(&f);
        for s in step.iter_mut() {
            *s = -*s;
        }
        let mut jcopy = jac.clone();
        if solve_dense(&mut jcopy, n, &mut step).is_err() {
            // Singular (or numerically rank-deficient) Jacobian: fall back to
            // Levenberg-Marquardt damping, escalating μ until the system
            // solves. Rank deficiency happens legitimately when a residual
            // direction is indeterminate (e.g. trace-species potentials in
            // chemical equilibrium); the damping picks the minimum-norm step.
            let jscale = jac.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-30);
            let mut mu = 1e-10 * jscale;
            let mut solved = false;
            for _ in 0..40 {
                step.copy_from_slice(&f);
                for s in step.iter_mut() {
                    *s = -*s;
                }
                jcopy.copy_from_slice(&jac);
                for k in 0..n {
                    jcopy[k * n + k] += mu;
                }
                if solve_dense(&mut jcopy, n, &mut step).is_ok() {
                    solved = true;
                    break;
                }
                mu *= 10.0;
            }
            if !solved {
                return Err(NewtonError::Singular(LinalgError::Singular(0)));
            }
        }

        // Backtracking line search on the residual norm.
        let mut lambda = 1.0;
        loop {
            for i in 0..n {
                xpert[i] = x[i] + lambda * step[i];
            }
            residual(&xpert, &mut ftrial);
            let tnorm = if ftrial.iter().all(|v| v.is_finite()) {
                inf_norm(&ftrial)
            } else {
                f64::INFINITY
            };
            if tnorm < fnorm || lambda <= opts.min_lambda {
                if tnorm.is_finite() {
                    x.copy_from_slice(&xpert);
                    f.copy_from_slice(&ftrial);
                    fnorm = tnorm;
                } else {
                    // Even the floor-damped step blew up: take a tiny step in
                    // the Newton direction and re-evaluate.
                    for i in 0..n {
                        x[i] += opts.min_lambda * 0.01 * step[i];
                    }
                    residual(x, &mut f);
                    fnorm = inf_norm(&f);
                }
                break;
            }
            lambda *= 0.5;
        }
    }

    if fnorm <= opts.tol * 100.0 {
        // Close enough for downstream use; report unconverged-but-usable.
        return Ok(NewtonResult {
            iterations: opts.max_iter,
            residual: fnorm,
            converged: false,
        });
    }
    Err(NewtonError::NotConverged { residual: fnorm })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_quadratic() {
        let mut x = vec![3.0];
        let r = newton_solve(
            |x, f| f[0] = x[0] * x[0] - 2.0,
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(r.converged);
        assert!((x[0] - std::f64::consts::SQRT_2).abs() < 1e-8);
    }

    #[test]
    fn coupled_system() {
        // x² + y² = 4, x·y = 1 — solution in the first quadrant.
        let mut x = vec![2.0, 0.3];
        let r = newton_solve(
            |x, f| {
                f[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
                f[1] = x[0] * x[1] - 1.0;
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(r.converged);
        assert!((x[0] * x[0] + x[1] * x[1] - 4.0).abs() < 1e-8);
        assert!((x[0] * x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn damped_handles_poor_guess() {
        // exp(x) = 2 with a wild initial guess; undamped Newton from x=30
        // overflows, the line search must save it.
        let mut x = vec![30.0];
        let r = newton_solve(
            |x, f| f[0] = x[0].exp() - 2.0,
            &mut x,
            &NewtonOptions {
                max_iter: 200,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert!(r.residual < 1e-6);
        assert!((x[0] - 2.0_f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn degenerate_system_solved_by_levenberg_fallback() {
        // F(x, y) = (x + y − 3, x + y − 3) — singular Jacobian everywhere,
        // but solutions exist; the LM fallback must find one.
        let mut x = vec![1.0, 1.0];
        let res = newton_solve(
            |x, f| {
                f[0] = x[0] + x[1] - 3.0;
                f[1] = x[0] + x[1] - 3.0;
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(res.residual < 1e-8);
        assert!((x[0] + x[1] - 3.0).abs() < 1e-8);
    }
}
