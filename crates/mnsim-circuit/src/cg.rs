//! Jacobi-preconditioned conjugate-gradient solver.
//!
//! The reduced nodal matrix of a resistor network with grounded sources is
//! symmetric positive-definite, which makes conjugate gradients the solver
//! of choice for large crossbars (a 256×256 crossbar has ≈130 000 unknowns
//! but only ≈5 non-zeros per row). Jacobi (diagonal) preconditioning tames
//! the wide conductance spread between ohm-scale wire segments and
//! megaohm-scale memristor cells.

use mnsim_obs as obs;

use crate::error::CircuitError;
use crate::sparse::CsrMatrix;

static CG_SOLVES: obs::Counter = obs::Counter::new("circuit.cg.solves");
static CG_ITERATIONS: obs::Counter = obs::Counter::new("circuit.cg.iterations");
static CG_ITERATIONS_PER_SOLVE: obs::Histogram =
    obs::Histogram::new("circuit.cg.iterations_per_solve");
static CG_FINAL_RESIDUAL: obs::Histogram = obs::Histogram::new("circuit.cg.final_residual");
static CG_NO_CONVERGENCE: obs::Counter = obs::Counter::new("circuit.cg.no_convergence");
static CG_NON_FINITE: obs::Counter = obs::Counter::new("circuit.cg.non_finite");
static CG_STAGNATED: obs::Counter = obs::Counter::new("circuit.cg.stagnated");

/// Hard cap on conjugate-gradient iterations.
///
/// Replaces the historical `max_iterations: 0` magic-zero sentinel:
/// "use the solver default" and "zero iterations" are now distinct,
/// explicit values, so a caller can no longer request the default by
/// accident when they meant a hard stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterationCap {
    /// The solver default: `10 × n` iterations for an `n`-unknown system.
    Auto,
    /// An explicit cap. `Limit(0)` genuinely means zero iterations: the
    /// solve only succeeds if the start vector already meets the
    /// tolerance.
    Limit(usize),
}

impl IterationCap {
    /// Resolves the cap against the system size `n`.
    pub fn resolve(&self, n: usize) -> usize {
        match self {
            IterationCap::Auto => 10 * n,
            IterationCap::Limit(limit) => *limit,
        }
    }
}

/// Options controlling the conjugate-gradient iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance (‖r‖ / ‖b‖).
    pub tolerance: f64,
    /// Hard iteration cap (default [`IterationCap::Auto`] = `10 × n`).
    pub max_iterations: IterationCap,
    /// Stagnation guard: fail fast with
    /// [`CircuitError::LinearStagnated`] when this many consecutive
    /// iterations pass without a new best residual, instead of burning
    /// the remaining iteration budget. `None` disables the guard. The
    /// default window of 1000 sits above the plateau phases real
    /// ill-conditioned crossbar solves go through on their way to
    /// convergence (hundreds of iterations have been observed), so it
    /// only trips on genuinely stuck solves.
    pub stagnation_window: Option<usize>,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: IterationCap::Auto,
            stagnation_window: Some(1000),
        }
    }
}

/// Convergence statistics returned alongside the solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `A·x = b` for symmetric positive-definite `A`.
///
/// Returns the solution vector together with convergence statistics.
///
/// # Errors
///
/// * [`CircuitError::DimensionMismatch`] if shapes disagree.
/// * [`CircuitError::LinearNoConvergence`] if the tolerance is not reached
///   within the iteration budget.
/// * [`CircuitError::LinearNonFinite`] as soon as the residual or an
///   internal quadratic form becomes NaN/Inf (detected mid-iteration, not
///   after the budget is exhausted).
/// * [`CircuitError::LinearStagnated`] when
///   [`CgOptions::stagnation_window`] consecutive iterations pass without
///   a new best residual.
/// * [`CircuitError::SingularSystem`] if a zero diagonal entry makes the
///   Jacobi preconditioner undefined.
pub fn solve_cg(a: &CsrMatrix, b: &[f64], options: &CgOptions) -> Result<(Vec<f64>, CgStats), CircuitError> {
    solve_cg_warm(a, b, None, options)
}

/// Solves `A·x = b` like [`solve_cg`], optionally warm-started from `x0`.
///
/// With `x0 = None` the iteration starts from zero and is identical to
/// [`solve_cg`]. With `Some(x0)` the initial residual is `b − A·x0`, so a
/// guess close to the solution (e.g. the previous solve of a correlated
/// batch) converges in far fewer iterations; an already-converged guess
/// returns after zero iterations.
///
/// # Errors
///
/// Same as [`solve_cg`], plus [`CircuitError::DimensionMismatch`] when `x0`
/// has the wrong length.
pub fn solve_cg_warm(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &CgOptions,
) -> Result<(Vec<f64>, CgStats), CircuitError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(CircuitError::DimensionMismatch {
            expected: n,
            actual: a.cols(),
            what: "matrix must be square",
        });
    }
    if b.len() != n {
        return Err(CircuitError::DimensionMismatch {
            expected: n,
            actual: b.len(),
            what: "right-hand side length",
        });
    }
    if n == 0 {
        return Ok((
            Vec::new(),
            CgStats {
                iterations: 0,
                residual: 0.0,
            },
        ));
    }

    let diag = a.diagonal();
    let mut inv_diag = vec![0.0; n];
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 {
            return Err(CircuitError::SingularSystem { at: i });
        }
        inv_diag[i] = 1.0 / d;
    }

    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(CircuitError::DimensionMismatch {
                expected: n,
                actual: x0.len(),
                what: "warm-start vector length",
            });
        }
    }

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        // x = 0 is the exact solution of an SPD system with b = 0,
        // regardless of the warm-start guess.
        return Ok((
            vec![0.0; n],
            CgStats {
                iterations: 0,
                residual: 0.0,
            },
        ));
    }

    let max_iterations = options.max_iterations.resolve(n);

    let (mut x, mut r) = match x0 {
        None => (vec![0.0; n], b.to_vec()), // r = b - A·0
        Some(x0) => {
            let mut r = vec![0.0; n];
            a.mul_vec_into(x0, &mut r);
            for i in 0..n {
                r[i] = b[i] - r[i];
            }
            (x0.to_vec(), r)
        }
    };
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    let mut iterations = 0;
    let mut residual = norm2(&r) / b_norm;
    if !residual.is_finite() {
        // A NaN/Inf matrix entry, rhs, or warm-start guess poisons the
        // initial residual — fail before doing any work.
        CG_NON_FINITE.inc();
        return Err(CircuitError::LinearNonFinite { iterations: 0 });
    }
    let mut best_residual = residual;
    let mut since_best = 0usize;

    while residual > options.tolerance && iterations < max_iterations {
        a.mul_vec_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if !pap.is_finite() {
            CG_NON_FINITE.inc();
            CG_ITERATIONS.add(iterations as u64);
            return Err(CircuitError::LinearNonFinite { iterations });
        }
        if pap <= 0.0 {
            // Not positive definite along p — report as singularity.
            return Err(CircuitError::SingularSystem { at: iterations });
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        iterations += 1;
        residual = norm2(&r) / b_norm;
        if !residual.is_finite() {
            CG_NON_FINITE.inc();
            CG_ITERATIONS.add(iterations as u64);
            return Err(CircuitError::LinearNonFinite { iterations });
        }
        if residual < best_residual {
            best_residual = residual;
            since_best = 0;
        } else {
            since_best += 1;
            if let Some(window) = options.stagnation_window {
                if since_best >= window && residual > options.tolerance {
                    CG_STAGNATED.inc();
                    CG_ITERATIONS.add(iterations as u64);
                    return Err(CircuitError::LinearStagnated {
                        iterations,
                        residual,
                        window,
                    });
                }
            }
        }
    }

    if residual > options.tolerance {
        CG_NO_CONVERGENCE.inc();
        CG_ITERATIONS.add(iterations as u64);
        return Err(CircuitError::LinearNoConvergence {
            iterations,
            residual,
            tolerance: options.tolerance,
        });
    }

    CG_SOLVES.inc();
    CG_ITERATIONS.add(iterations as u64);
    CG_ITERATIONS_PER_SOLVE.record(iterations as f64);
    CG_FINAL_RESIDUAL.record(residual);

    Ok((x, CgStats {
        iterations,
        residual,
    }))
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i > 0 {
                t.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn solves_tridiagonal_laplacian() {
        let n = 50;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.mul_vec(&x_true);
        let (x, stats) = solve_cg(&a, &b, &CgOptions::default()).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "component {i}");
        }
        assert!(stats.iterations <= n + 1, "CG must converge in ≤ n+1 steps");
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let (x, stats) = solve_cg(&a, &[0.0; 10], &CgOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn empty_system() {
        let a = TripletMatrix::new(0, 0).to_csr();
        let (x, _) = solve_cg(&a, &[], &CgOptions::default()).unwrap();
        assert!(x.is_empty());
    }

    #[test]
    fn dimension_mismatch() {
        let a = laplacian_1d(4);
        assert!(matches!(
            solve_cg(&a, &[1.0, 2.0], &CgOptions::default()),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_diagonal_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 1.0);
        let a = t.to_csr();
        assert!(matches!(
            solve_cg(&a, &[1.0, 1.0], &CgOptions::default()),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn iteration_budget_respected() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let opts = CgOptions {
            tolerance: 1e-14,
            max_iterations: IterationCap::Limit(2),
            ..CgOptions::default()
        };
        assert!(matches!(
            solve_cg(&a, &b, &opts),
            Err(CircuitError::LinearNoConvergence { iterations: 2, .. })
        ));
    }

    #[test]
    fn iteration_cap_resolves() {
        assert_eq!(IterationCap::Auto.resolve(7), 70);
        assert_eq!(IterationCap::Limit(2).resolve(7), 2);
        assert_eq!(IterationCap::Limit(0).resolve(7), 0);
    }

    #[test]
    fn non_finite_matrix_fails_fast() {
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t.add(i, i, 2.0);
        }
        t.add(0, 1, f64::NAN);
        let a = t.to_csr();
        assert!(matches!(
            solve_cg(&a, &[1.0; 3], &CgOptions::default()),
            Err(CircuitError::LinearNonFinite { .. })
        ));
    }

    #[test]
    fn non_finite_warm_start_fails_before_iterating() {
        let a = laplacian_1d(4);
        let guess = [f64::NAN; 4];
        assert!(matches!(
            solve_cg_warm(&a, &[1.0; 4], Some(&guess), &CgOptions::default()),
            Err(CircuitError::LinearNonFinite { iterations: 0 })
        ));
    }

    /// A system whose true residual bottoms out near machine precision
    /// (~1e-16) long before a 1e-30 tolerance is met: the non-integer
    /// right-hand side prevents the exact cancellation that would
    /// otherwise terminate CG with a residual of exactly zero.
    fn stalling_solve() -> (CsrMatrix, Vec<f64>) {
        let a = laplacian_1d(100);
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        (a, b)
    }

    #[test]
    fn unreachable_tolerance_trips_stagnation_guard() {
        let (a, b) = stalling_solve();
        let opts = CgOptions {
            tolerance: 1e-30,
            stagnation_window: Some(20),
            ..CgOptions::default()
        };
        match solve_cg(&a, &b, &opts) {
            Err(CircuitError::LinearStagnated {
                iterations,
                residual,
                window,
            }) => {
                assert_eq!(window, 20);
                assert!(iterations < 1000, "guard must fire before the budget");
                // The guard fired where the solve bottomed out, near
                // machine precision — not on a healthy converging stretch.
                assert!(residual < 1e-12, "stagnated at residual {residual:e}");
            }
            other => panic!("expected LinearStagnated, got {other:?}"),
        }
    }

    #[test]
    fn disabled_stagnation_guard_keeps_iterating() {
        // Legacy behavior: with the guard off the solver grinds on past the
        // point where the true residual stopped improving. (The recurrence
        // residual can even drift below the unreachable tolerance, so the
        // run may terminate "converged" — what it must never do is report
        // stagnation.)
        let (a, b) = stalling_solve();
        let opts = CgOptions {
            tolerance: 1e-30,
            stagnation_window: None,
            ..CgOptions::default()
        };
        match solve_cg(&a, &b, &opts) {
            Err(CircuitError::LinearStagnated { .. }) => {
                panic!("guard disabled but stagnation reported")
            }
            Ok((_, stats)) => assert!(
                stats.iterations > 100,
                "kept iterating past the stall point, got {}",
                stats.iterations
            ),
            Err(CircuitError::LinearNoConvergence { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn warm_start_from_solution_takes_zero_iterations() {
        let n = 40;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = a.mul_vec(&x_true);
        let (x_cold, cold) = solve_cg(&a, &b, &CgOptions::default()).unwrap();
        let (x_warm, warm) =
            solve_cg_warm(&a, &b, Some(&x_cold), &CgOptions::default()).unwrap();
        assert_eq!(warm.iterations, 0);
        assert_eq!(x_warm, x_cold);
        assert!(cold.iterations > 0);
    }

    #[test]
    fn warm_start_near_solution_converges_faster() {
        let n = 60;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.mul_vec(&x_true);
        let (_, cold) = solve_cg(&a, &b, &CgOptions::default()).unwrap();
        // A slightly perturbed solution is a realistic warm start.
        let guess: Vec<f64> = x_true.iter().map(|v| v + 1e-6).collect();
        let (x, warm) = solve_cg_warm(&a, &b, Some(&guess), &CgOptions::default()).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} !< cold {}",
            warm.iterations,
            cold.iterations
        );
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "component {i}");
        }
    }

    #[test]
    fn warm_start_dimension_checked() {
        let a = laplacian_1d(5);
        assert!(matches!(
            solve_cg_warm(&a, &[1.0; 5], Some(&[0.0; 3]), &CgOptions::default()),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_rhs_with_warm_start_returns_zero() {
        let a = laplacian_1d(6);
        let guess = vec![5.0; 6];
        let (x, stats) =
            solve_cg_warm(&a, &[0.0; 6], Some(&guess), &CgOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn badly_scaled_diagonal_still_converges() {
        // Mimics the crossbar situation: conductances spanning 6 decades.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let scale = if i % 2 == 0 { 1.0 } else { 1e6 };
            t.add(i, i, 2.0 * scale);
            if i > 0 {
                t.add(i, i - 1, -0.5);
                t.add(i - 1, i, -0.5);
            }
        }
        let a = t.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let b = a.mul_vec(&x_true);
        let (x, _) = solve_cg(&a, &b, &CgOptions::default()).unwrap();
        for i in 0..n {
            let rel = (x[i] - x_true[i]).abs() / x_true[i];
            assert!(rel < 1e-6, "component {i}: rel error {rel}");
        }
    }
}
