//! Sparse LDLᵀ factorization of the reduced nodal system.
//!
//! Every matrix the sparse engine sees is a reduced nodal matrix: a
//! conductance Laplacian over the undriven nodes plus the conductances of
//! branches to driven nodes and ground on the diagonal. Every stamped
//! conductance is strictly positive, so the matrix is symmetric positive
//! definite whenever it is nonsingular, and a simplicial `A = P·L·D·Lᵀ·Pᵀ`
//! with no pivoting is exact and stable on it (Davis' LDL scheme):
//!
//! 1. **Ordering** (`amd`): an approximate-minimum-degree fill-reducing
//!    permutation `P` of A's symmetric pattern.
//! 2. **Symbolic pass** ([`analyze`]): the elimination tree of `PAPᵀ` and
//!    the column counts of `L`, which fix `L`'s storage.
//! 3. **Numeric pass**: one up-looking routine computes row `k` of `L`
//!    and the pivot `d_k` from the elimination-tree reach of column `k`.
//!
//! [`SparseLdl::factor`] is [`analyze`] followed by the numeric pass, and
//! [`SparseLdl::refactor`] — the path for value-only updates such as fault
//! overlays, variation sweeps, Newton iterations and weight reprogramming
//! — is the numeric pass alone on the cached analysis. Both run the same
//! operations in the same order, so a refactor is **bit-identical** to a
//! fresh factorization of the same values, which keeps the cached fault
//! path inside the workspace-wide "bit-identical at any thread count"
//! contract.
//!
//! A pivot `d_k` that is not a positive finite number means the matrix is
//! not positive definite — for a nodal system, a node or island with no
//! conductive path to a driven node or ground — and is reported as
//! [`CircuitError::SingularSystem`] at the permuted index `k`.
//!
//! Everything here is deterministic: no randomization, ties broken by
//! index, identical inputs give identical factors on every run.

mod amd;

use crate::error::CircuitError;
use crate::sparse::CscMatrix;
use mnsim_obs as obs;
use obs::trace::{self, Level};

static ANALYSES: obs::Counter = obs::Counter::new("solver.klu.analyses");
static FACTORS: obs::Counter = obs::Counter::new("solver.klu.factors");
static REFACTORS: obs::Counter = obs::Counter::new("solver.klu.refactor");
static SOLVES: obs::Counter = obs::Counter::new("solver.klu.solves");
static FACTOR_NNZ: obs::Gauge = obs::Gauge::new("solver.klu.lu_nnz");

/// Marks a root of the elimination tree.
const ROOT: usize = usize::MAX;

/// The structure-only half of the factorization: the fill-reducing
/// permutation, the elimination tree and the column layout of `L`, plus
/// the pattern fingerprint that gates refactorization. Computed once per
/// sparsity pattern by [`analyze`].
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    /// Fill-reducing permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Its inverse, `pinv[old] = new`.
    pinv: Vec<usize>,
    /// Elimination-tree parent of each permuted column ([`ROOT`] for a
    /// root).
    parent: Vec<usize>,
    /// Start of each column of `L` in the factor arrays (`n + 1` entries).
    l_ptr: Vec<usize>,
    /// [`CscMatrix::pattern_hash`] of the analyzed matrix.
    pattern_hash: u64,
}

impl SymbolicAnalysis {
    /// Matrix dimension the analysis was computed for.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// Fill-reducing permutation, `perm()[new] = old`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Elimination-tree parent of permuted column `j`, `None` for a root.
    /// A parent always has a larger index than its child.
    pub fn parent(&self, j: usize) -> Option<usize> {
        Some(self.parent[j]).filter(|&p| p != ROOT)
    }

    /// Stored off-diagonal entries of `L`, known before any numeric work.
    pub fn l_nnz(&self) -> usize {
        self.l_ptr[self.n()]
    }

    /// Whether `a` has the sparsity pattern of the analyzed matrix, i.e.
    /// whether [`SparseLdl::refactor`] accepts it.
    pub fn compatible_with(&self, a: &CscMatrix) -> bool {
        a.cols() == self.n() && a.rows() == self.n() && a.pattern_hash() == self.pattern_hash
    }
}

/// Computes the symbolic analysis of a square, structurally symmetric
/// matrix: the AMD ordering, then the elimination tree and column counts
/// of `L` for `PAPᵀ`.
///
/// # Panics
///
/// Panics if `a` is not square, or has more than `u32::MAX` rows.
pub fn analyze(a: &CscMatrix) -> SymbolicAnalysis {
    let n = a.cols();
    assert_eq!(a.rows(), n, "symbolic analysis requires a square matrix");
    assert!(
        u32::try_from(n).is_ok(),
        "row indices of L are stored as u32"
    );
    let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());

    let perm = {
        let _span = trace::span("solver.order", Level::Stage);
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|j| row_idx[col_ptr[j]..col_ptr[j + 1]].to_vec())
            .collect();
        amd::min_degree_order(n, &adj)
    };
    let mut pinv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        pinv[old] = new;
    }

    // Row k of L has a nonzero in column i for every i on the tree path
    // from an entry a_ik (i < k) of PAPᵀ up to k; the first visit of a
    // node without a parent makes k its parent.
    let mut parent = vec![ROOT; n];
    let mut counts = vec![0usize; n];
    let mut flag = vec![ROOT; n];
    for k in 0..n {
        flag[k] = k;
        let old = perm[k];
        for &row in &row_idx[col_ptr[old]..col_ptr[old + 1]] {
            let mut i = pinv[row];
            while i < k && flag[i] != k {
                if parent[i] == ROOT {
                    parent[i] = k;
                }
                counts[i] += 1;
                flag[i] = k;
                i = parent[i];
            }
        }
    }
    let mut l_ptr = Vec::with_capacity(n + 1);
    l_ptr.push(0);
    for count in counts {
        l_ptr.push(l_ptr[l_ptr.len() - 1] + count);
    }

    ANALYSES.add(1);
    SymbolicAnalysis {
        perm,
        pinv,
        parent,
        l_ptr,
        pattern_hash: a.pattern_hash(),
    }
}

/// A sparse `P·L·D·Lᵀ·Pᵀ` factorization: the cached symbolic analysis plus
/// the unit lower-triangular `L` (column-major, diagonal implicit) and the
/// pivots `D`.
#[derive(Debug, Clone)]
pub struct SparseLdl {
    symbolic: SymbolicAnalysis,
    /// Row index of every stored entry of `L`, ascending within a column
    /// (`u32` halves the index traffic of the memory-bound numeric pass).
    l_idx: Vec<u32>,
    l_val: Vec<f64>,
    d: Vec<f64>,
}

impl SparseLdl {
    /// Analyzes and factorizes the symmetric matrix `a` from scratch.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] when `a` is not positive definite,
    /// carrying the permuted index of the first pivot that is not a
    /// positive finite number.
    pub fn factor(a: &CscMatrix) -> Result<SparseLdl, CircuitError> {
        let symbolic = analyze(a);
        let nnz = symbolic.l_nnz();
        let mut ldl = SparseLdl {
            l_idx: vec![0; nnz],
            l_val: vec![0.0; nnz],
            d: vec![0.0; symbolic.n()],
            symbolic,
        };
        ldl.numeric(a)?;
        FACTORS.add(1);
        FACTOR_NNZ.set(ldl.nnz() as f64);
        Ok(ldl)
    }

    /// Numeric-only update for a matrix with the analyzed pattern and new
    /// values, bit-identical to a fresh [`SparseLdl::factor`] of `a`.
    ///
    /// On any `Err` the factors are left in an unspecified state and must
    /// not be used for solves until a successful refactor or a fresh
    /// factorization.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] as for [`SparseLdl::factor`];
    /// [`CircuitError::InvalidElement`] when `a` does not have the
    /// analyzed sparsity pattern (see [`SymbolicAnalysis::compatible_with`]).
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), CircuitError> {
        if !self.symbolic.compatible_with(a) {
            return Err(CircuitError::InvalidElement {
                reason: "refactor: sparsity pattern differs from the analyzed matrix".into(),
            });
        }
        self.numeric(a)?;
        REFACTORS.add(1);
        Ok(())
    }

    /// The up-looking numeric pass, the only numeric path. Row `k` of `L`
    /// is the sparse triangular solve `L₁:k-1 · D · l_k = a_k` over the
    /// elimination-tree reach of column `k` of `PAPᵀ`; its entries are
    /// appended to their columns, so each column fills in row order.
    fn numeric(&mut self, a: &CscMatrix) -> Result<(), CircuitError> {
        let _span = trace::span("solver.factor", Level::Stage);
        let SymbolicAnalysis {
            perm,
            pinv,
            parent,
            l_ptr,
            ..
        } = &self.symbolic;
        let n = perm.len();
        let (col_ptr, row_idx, values) = (a.col_ptr(), a.row_idx(), a.values());
        let mut y = vec![0.0f64; n];
        let mut filled = vec![0usize; n];
        let mut flag = vec![ROOT; n];
        let mut pattern = vec![0usize; n];

        for k in 0..n {
            // Scatter the upper part of column k of PAPᵀ into y and collect
            // the reach in topological order at pattern[top..].
            flag[k] = k;
            let mut top = n;
            let old = perm[k];
            for p in col_ptr[old]..col_ptr[old + 1] {
                let mut i = pinv[row_idx[p]];
                if i > k {
                    continue;
                }
                y[i] += values[p];
                let mut len = 0;
                while flag[i] != k {
                    pattern[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = pattern[len];
                }
            }

            let mut d = y[k];
            y[k] = 0.0;
            for &i in &pattern[top..] {
                let yi = y[i];
                y[i] = 0.0;
                let (start, end) = (l_ptr[i], l_ptr[i] + filled[i]);
                for (&row, &l) in self.l_idx[start..end].iter().zip(&self.l_val[start..end]) {
                    y[row as usize] -= l * yi;
                }
                let l_ki = yi / self.d[i];
                d -= l_ki * yi;
                self.l_idx[end] = k as u32;
                self.l_val[end] = l_ki;
                filled[i] += 1;
            }
            if !(d > 0.0 && d.is_finite()) {
                return Err(CircuitError::SingularSystem { at: k });
            }
            self.d[k] = d;
        }
        Ok(())
    }

    /// Solves `A x = b` in original (unpermuted) coordinates.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(b.len(), n, "right-hand side length mismatch");
        let _span = trace::span("solver.solve", Level::Stage);
        SOLVES.add(1);
        let l_ptr = &self.symbolic.l_ptr;
        let mut x: Vec<f64> = self.symbolic.perm.iter().map(|&old| b[old]).collect();
        for j in 0..n {
            let xj = x[j];
            let col = l_ptr[j]..l_ptr[j + 1];
            for (&row, &l) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                x[row as usize] -= l * xj;
            }
        }
        for (xj, dj) in x.iter_mut().zip(&self.d) {
            *xj /= dj;
        }
        for j in (0..n).rev() {
            let col = l_ptr[j]..l_ptr[j + 1];
            let mut xj = x[j];
            for (&row, &l) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                xj -= l * x[row as usize];
            }
            x[j] = xj;
        }
        let mut out = vec![0.0; n];
        for (&old, &xj) in self.symbolic.perm.iter().zip(&x) {
            out[old] = xj;
        }
        out
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicAnalysis {
        &self.symbolic
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.symbolic.n()
    }

    /// Stored entries of `L` plus `D` (the fill metric, also exported as
    /// the `solver.klu.lu_nnz` gauge).
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.d.len()
    }

    /// Reconstructs `P·L·D·Lᵀ·Pᵀ` as a dense matrix — test support for the
    /// `LDLᵀ ≈ A` invariant.
    #[cfg(test)]
    fn reconstruct_dense(&self) -> Vec<Vec<f64>> {
        let n = self.n();
        let mut l = vec![vec![0.0; n]; n];
        for (j, row) in l.iter_mut().enumerate() {
            row[j] = 1.0;
        }
        for j in 0..n {
            for p in self.symbolic.l_ptr[j]..self.symbolic.l_ptr[j + 1] {
                l[self.l_idx[p] as usize][j] = self.l_val[p];
            }
        }
        let perm = &self.symbolic.perm;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let sum: f64 = (0..n).map(|k| l[i][k] * self.d[k] * l[j][k]).sum();
                a[perm[i]][perm[j]] = sum;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn csc(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &(r, c, v) in entries {
            t.add(r, c, v);
        }
        t.to_csc()
    }

    /// A "laplacian + diagonal shift" system on a path, the shape the
    /// reduced crossbar stamps produce.
    fn spd_system(n: usize, shift: f64) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut diag = shift;
            if i > 0 {
                t.add(i, i - 1, -1.0);
                diag += 1.0;
            }
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                diag += 1.0;
            }
            t.add(i, i, diag);
        }
        t.to_csc()
    }

    fn solve_dense_ref(a: &CscMatrix, b: &[f64]) -> Vec<f64> {
        let dense = crate::dense::DenseMatrix::from_rows(&a.to_dense());
        dense.solve(b).expect("reference dense solve")
    }

    #[test]
    fn identity_solve_is_exact() {
        let a = csc(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let ldl = SparseLdl::factor(&a).expect("identity factors");
        assert_eq!(ldl.solve(&[3.0, -1.0, 2.5]), vec![3.0, -1.0, 2.5]);
        assert_eq!(ldl.nnz(), 3);
    }

    #[test]
    fn spd_solve_matches_dense() {
        let a = spd_system(12, 0.5);
        let b: Vec<f64> = (0..12).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let x = SparseLdl::factor(&a).expect("factors").solve(&b);
        for (xi, ri) in x.iter().zip(&solve_dense_ref(&a, &b)) {
            assert!((xi - ri).abs() < 1e-10, "{xi} vs {ri}");
        }
    }

    #[test]
    fn ldlt_reconstructs_a() {
        let a = spd_system(9, 0.25);
        let rebuilt = SparseLdl::factor(&a).expect("factors").reconstruct_dense();
        let dense = a.to_dense();
        for i in 0..9 {
            for j in 0..9 {
                assert!(
                    (rebuilt[i][j] - dense[i][j]).abs() < 1e-12,
                    "LDLᵀ mismatch at ({i}, {j}): {} vs {}",
                    rebuilt[i][j],
                    dense[i][j]
                );
            }
        }
    }

    #[test]
    fn elimination_tree_points_upward_and_counts_fill() {
        let a = spd_system(10, 0.5);
        let sym = analyze(&a);
        for j in 0..sym.n() {
            if let Some(p) = sym.parent(j) {
                assert!(p > j, "parent {p} of {j} is not above it");
            }
        }
        // A path stays a path under any ordering: no fill, n − 1 entries.
        assert_eq!(sym.l_nnz(), 9);
    }

    #[test]
    fn refactor_new_values_matches_fresh_factor() {
        let a1 = spd_system(10, 0.5);
        let mut t = TripletMatrix::new(10, 10);
        for j in 0..10 {
            for k in a1.col_ptr()[j]..a1.col_ptr()[j + 1] {
                t.add(a1.row_idx()[k], j, a1.values()[k] * 3.5);
            }
        }
        let a2 = t.to_csc();
        let mut ldl = SparseLdl::factor(&a1).expect("factors");
        ldl.refactor(&a2).expect("same pattern");
        let fresh = SparseLdl::factor(&a2).expect("factors");
        let b = vec![1.0; 10];
        for (r, f) in ldl.solve(&b).iter().zip(&fresh.solve(&b)) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = spd_system(6, 0.5);
        let other = csc(
            6,
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (4, 4, 1.0),
                (5, 5, 1.0),
            ],
        );
        let mut ldl = SparseLdl::factor(&a).expect("factors");
        assert!(matches!(
            ldl.refactor(&other),
            Err(CircuitError::InvalidElement { .. })
        ));
    }

    #[test]
    fn empty_column_is_a_singular_pivot() {
        let a = csc(3, &[(0, 0, 1.0), (2, 2, 1.0)]);
        assert!(matches!(
            SparseLdl::factor(&a),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn indefinite_and_non_finite_pivots_are_typed() {
        let indefinite = csc(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseLdl::factor(&indefinite),
            Err(CircuitError::SingularSystem { .. })
        ));
        let nan = csc(2, &[(0, 0, f64::NAN), (1, 1, 1.0)]);
        assert!(matches!(
            SparseLdl::factor(&nan),
            Err(CircuitError::SingularSystem { .. })
        ));
    }
}
