//! Sparse LDLᵀ factorization of the reduced nodal system.
//!
//! Every matrix the sparse engine sees is a reduced nodal matrix: a
//! conductance Laplacian over the undriven nodes plus the conductances of
//! branches to driven nodes and ground on the diagonal. Every stamped
//! conductance is strictly positive, so the matrix is symmetric positive
//! definite whenever it is nonsingular, and `A = P·L·D·Lᵀ·Pᵀ` with no
//! pivoting is exact and stable on it:
//!
//! 1. **Ordering** (`amd`): an approximate-minimum-degree fill-reducing
//!    permutation `P` of A's symmetric pattern.
//! 2. **Symbolic pass** ([`analyze`]): the elimination tree of `PAPᵀ` and
//!    the column counts of `L`; the tree's postorder is composed into `P`
//!    (same fill, but every subtree becomes a contiguous run of columns).
//!    The column counts then pick the numeric path: when the flops per
//!    entry of `L`, `Σ(cⱼ+1)² / Σ(cⱼ+1)`, reach `SUPERNODAL_SWITCH` (40),
//!    the fundamental supernodes and their row structures are recorded.
//! 3. **Numeric pass**, one of two:
//!    * *simplicial* (Davis' LDL): an up-looking routine computes row `k`
//!      of `L` and the pivot `d_k` from the elimination-tree reach of
//!      column `k` — cheapest when `L`'s columns are short;
//!    * *supernodal multifrontal* (`supernodal`): dense panels per
//!      supernode, children's update matrices combined by extend-add on a
//!      stack — cheapest when the fill is dense enough for dense kernels.
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
mod supernodal;

use crate::error::CircuitError;
use crate::sparse::CscMatrix;
use mnsim_obs as obs;
use obs::trace::{self, Level};
use supernodal::Supernodes;

static ANALYSES: obs::Counter = obs::Counter::new("solver.klu.analyses");
static FACTORS: obs::Counter = obs::Counter::new("solver.klu.factors");
static REFACTORS: obs::Counter = obs::Counter::new("solver.klu.refactor");
static SUPERNODAL: obs::Counter = obs::Counter::new("solver.klu.supernodal");
static SOLVES: obs::Counter = obs::Counter::new("solver.klu.solves");
static FACTOR_NNZ: obs::Gauge = obs::Gauge::new("solver.klu.lu_nnz");

/// Marks a root of the elimination tree.
const ROOT: usize = usize::MAX;

/// Flops per entry of `L` at and above which the numeric pass runs on
/// supernodal panels (CHOLMOD's default switch). Crossbar meshes read
/// 13.7 at 16×16, 29.2 at 32×32, 60.4 at 64×64, 116 at 128×128 and 238
/// at 256×256.
const SUPERNODAL_SWITCH: f64 = 40.0;

/// The structure-only half of the factorization: the fill-reducing
/// permutation, the elimination tree and the layout of `L` (plus its
/// supernodes when the supernodal path is chosen), and the pattern
/// fingerprint that gates refactorization. Computed once per sparsity
/// pattern by [`analyze`].
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    /// Fill-reducing, postordered permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Its inverse, `pinv[old] = new`.
    pinv: Vec<usize>,
    /// Elimination-tree parent of each permuted column ([`ROOT`] for a
    /// root).
    parent: Vec<usize>,
    /// Start of each column of `L` in the simplicial factor arrays (`n + 1`
    /// entries).
    l_ptr: Vec<usize>,
    /// The supernode partition, when the numeric pass is supernodal.
    supernodes: Option<Box<Supernodes>>,
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

    /// Structural off-diagonal entries of `L`, known before any numeric
    /// work.
    pub fn l_nnz(&self) -> usize {
        self.l_ptr[self.n()]
    }

    /// Whether `a` has the sparsity pattern of the analyzed matrix, i.e.
    /// whether [`SparseLdl::refactor`] accepts it.
    pub fn compatible_with(&self, a: &CscMatrix) -> bool {
        a.cols() == self.n() && a.rows() == self.n() && a.pattern_hash() == self.pattern_hash
    }

    /// Bytes held by the analysis: the permutation, its inverse, the
    /// elimination tree and `L`'s column pointers, plus the supernodes'
    /// row structures and the numeric pass's update stack.
    fn approx_bytes(&self) -> usize {
        self.n() * 32 + 8 + self.supernodes.as_ref().map_or(0, |s| s.approx_bytes())
    }
}

/// Computes the symbolic analysis of a square, structurally symmetric
/// matrix: the AMD ordering, then the postordered elimination tree and
/// column counts of `L` for `PAPᵀ`, and the supernodes when the column
/// counts reach `SUPERNODAL_SWITCH`.
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

    let order = {
        let _span = trace::span("solver.order", Level::Stage);
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|j| row_idx[col_ptr[j]..col_ptr[j + 1]].to_vec())
            .collect();
        amd::min_degree_order(n, &adj)
    };

    let _span = trace::span("solver.symbolic", Level::Stage);
    let (parent, counts) = etree_and_counts(a, &order, &inverse(&order));

    // Relabel by the postorder: post[new] = old label in `order`.
    let post = postorder(&parent);
    let post_inv = inverse(&post);
    let perm: Vec<usize> = post.iter().map(|&j| order[j]).collect();
    let pinv = inverse(&perm);
    let parent: Vec<usize> = post
        .iter()
        .map(|&j| match parent[j] {
            ROOT => ROOT,
            p => post_inv[p],
        })
        .collect();
    let counts: Vec<usize> = post.iter().map(|&j| counts[j]).collect();

    let (mut entries, mut flops) = (0.0f64, 0.0f64);
    for &c in &counts {
        let col = (c + 1) as f64;
        entries += col;
        flops += col * col;
    }
    let supernodes = (n > 0 && flops >= SUPERNODAL_SWITCH * entries)
        .then(|| Box::new(Supernodes::build(a, &perm, &pinv, &parent, &counts)));

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
        supernodes,
        pattern_hash: a.pattern_hash(),
    }
}

/// The inverse of a permutation.
fn inverse(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    inv
}

/// The elimination tree of `PAPᵀ` and the off-diagonal count of every
/// column of its `L`.
fn etree_and_counts(a: &CscMatrix, perm: &[usize], pinv: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = perm.len();
    let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());
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
    (parent, counts)
}

/// A postorder of the forest `parent`, children in ascending order:
/// `post[new] = old`.
fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Child lists, built in reverse so each lists its children ascending.
    let (mut head, mut next) = (vec![ROOT; n], vec![ROOT; n]);
    for j in (0..n).rev() {
        if parent[j] != ROOT {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in (0..n).filter(|&j| parent[j] == ROOT) {
        stack.push(root);
        while let Some(&top) = stack.last() {
            match head[top] {
                ROOT => {
                    stack.pop();
                    post.push(top);
                }
                child => {
                    head[top] = next[child];
                    stack.push(child);
                }
            }
        }
    }
    post
}

/// A sparse `P·L·D·Lᵀ·Pᵀ` factorization: the cached symbolic analysis plus
/// the unit lower-triangular `L` (diagonal implicit) and the pivots `D`.
/// `L` is stored by column on the simplicial path and as one dense panel
/// per supernode on the supernodal path.
#[derive(Debug, Clone)]
pub struct SparseLdl {
    symbolic: SymbolicAnalysis,
    /// Row index of every stored entry of a simplicial `L`, ascending
    /// within a column (`u32` halves the index traffic of the
    /// memory-bound numeric pass); empty on the supernodal path, whose
    /// row structures live in the analysis.
    l_idx: Vec<u32>,
    /// Values of `L`: by column, or panel by panel.
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
        let mut ldl = SparseLdl::with_analysis(analyze(a));
        ldl.numeric(a)?;
        FACTORS.add(1);
        FACTOR_NNZ.set(ldl.nnz() as f64);
        Ok(ldl)
    }

    /// Allocates the factor storage `symbolic` lays out.
    fn with_analysis(symbolic: SymbolicAnalysis) -> SparseLdl {
        let (indices, values) = match &symbolic.supernodes {
            Some(supernodes) => (0, supernodes.panel_len()),
            None => (symbolic.l_nnz(), symbolic.l_nnz()),
        };
        SparseLdl {
            l_idx: vec![0; indices],
            l_val: vec![0.0; values],
            d: vec![0.0; symbolic.n()],
            symbolic,
        }
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

    /// The numeric pass the analysis chose; the only numeric path of both
    /// [`SparseLdl::factor`] and [`SparseLdl::refactor`].
    fn numeric(&mut self, a: &CscMatrix) -> Result<(), CircuitError> {
        let _span = trace::span("solver.factor", Level::Stage);
        let SymbolicAnalysis {
            perm,
            pinv,
            supernodes,
            ..
        } = &self.symbolic;
        match supernodes {
            Some(supernodes) => {
                SUPERNODAL.add(1);
                supernodes.numeric(a, perm, pinv, &mut self.l_val, &mut self.d)
            }
            None => self.up_looking(a),
        }
    }

    /// The simplicial up-looking numeric pass. Row `k` of `L` is the
    /// sparse triangular solve `L₁:k-1 · D · l_k = a_k` over the
    /// elimination-tree reach of column `k` of `PAPᵀ`; its entries are
    /// appended to their columns, so each column fills in row order.
    fn up_looking(&mut self, a: &CscMatrix) -> Result<(), CircuitError> {
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
        let mut x: Vec<f64> = self.symbolic.perm.iter().map(|&old| b[old]).collect();
        match &self.symbolic.supernodes {
            Some(supernodes) => supernodes.solve(&self.l_val, &self.d, &mut x),
            None => self.solve_simplicial(&mut x),
        }
        let mut out = vec![0.0; n];
        for (&old, &xj) in self.symbolic.perm.iter().zip(&x) {
            out[old] = xj;
        }
        out
    }

    /// Forward and back substitution over the columns of a simplicial
    /// `L`, in permuted coordinates.
    fn solve_simplicial(&self, x: &mut [f64]) {
        let l_ptr = &self.symbolic.l_ptr;
        for j in 0..x.len() {
            let xj = x[j];
            let col = l_ptr[j]..l_ptr[j + 1];
            for (&row, &l) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                x[row as usize] -= l * xj;
            }
        }
        for (xj, dj) in x.iter_mut().zip(&self.d) {
            *xj /= dj;
        }
        for j in (0..x.len()).rev() {
            let col = l_ptr[j]..l_ptr[j + 1];
            let mut xj = x[j];
            for (&row, &l) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                xj -= l * x[row as usize];
            }
            x[j] = xj;
        }
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicAnalysis {
        &self.symbolic
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.symbolic.n()
    }

    /// Structural entries of `L` plus `D` (the fill metric, also exported
    /// as the `solver.klu.lu_nnz` gauge). The same on both numeric paths:
    /// the padding of supernodal panels is not counted.
    pub fn nnz(&self) -> usize {
        self.symbolic.l_nnz() + self.d.len()
    }

    /// Resident size in bytes: `L` as stored (panel padding included),
    /// `D`, and the symbolic analysis with the peak of the supernodal
    /// update stack.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.l_val.len() * 8
            + self.l_idx.len() * 4
            + self.d.len() * 8
            + self.symbolic.approx_bytes()
    }

    /// Every stored entry of `L` as `(row, column, value)` — test support.
    #[cfg(test)]
    fn l_entries(&self) -> Vec<(usize, usize, f64)> {
        match &self.symbolic.supernodes {
            Some(supernodes) => supernodes.entries(&self.l_val),
            None => (0..self.n())
                .flat_map(|j| {
                    (self.symbolic.l_ptr[j]..self.symbolic.l_ptr[j + 1])
                        .map(move |p| (self.l_idx[p] as usize, j, self.l_val[p]))
                })
                .collect(),
        }
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
        for (row, col, value) in self.l_entries() {
            l[row][col] = value;
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

    /// Deterministic xorshift uniform in `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `sym` with the other numeric path: the supernodes dropped, or built
    /// on its postordered tree and column counts.
    fn other_path(sym: &SymbolicAnalysis, a: &CscMatrix) -> SymbolicAnalysis {
        let mut other = sym.clone();
        other.supernodes = match sym.supernodes {
            Some(_) => None,
            None => {
                let counts: Vec<usize> = sym.l_ptr.windows(2).map(|w| w[1] - w[0]).collect();
                Some(Box::new(Supernodes::build(
                    a,
                    &sym.perm,
                    &sym.pinv,
                    &sym.parent,
                    &counts,
                )))
            }
        };
        other
    }

    /// One analysis of `a` on each numeric path.
    fn both_paths(a: &CscMatrix) -> [SymbolicAnalysis; 2] {
        let sym = analyze(a);
        [other_path(&sym, a), sym]
    }

    /// Runs the numeric pass of `sym` on `a`.
    fn factor_with(sym: &SymbolicAnalysis, a: &CscMatrix) -> Result<SparseLdl, CircuitError> {
        let mut ldl = SparseLdl::with_analysis(sym.clone());
        ldl.numeric(a).map(|()| ldl)
    }

    /// The reduced system of a 64×64 crossbar with cell states drawn from
    /// `[5 kΩ, 20 kΩ)`.
    fn crossbar_64() -> CscMatrix {
        use crate::crossbar::CrossbarSpec;
        use mnsim_tech::units::{Resistance, Voltage};
        let mut spec = CrossbarSpec::uniform(
            64,
            64,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        );
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for cell in &mut spec.states {
            *cell = Resistance::from_ohms(5_000.0 + 15_000.0 * uniform(&mut state));
        }
        let built = spec.build().expect("valid crossbar");
        crate::nodal::reduced_matrix(built.circuit())
    }

    /// A `side³` mesh with random conductances and a small ground leak:
    /// SPD, and its fill is dense enough for the supernodal path.
    fn random_mesh_3d(side: usize, seed: u64) -> CscMatrix {
        let n = side * side * side;
        let mut state = seed | 1;
        let mut t = TripletMatrix::new(n, n);
        let mut diag = vec![1e-3; n];
        let id = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    let v = id(x, y, z);
                    let neighbors = [
                        (x + 1 < side).then(|| id(x + 1, y, z)),
                        (y + 1 < side).then(|| id(x, y + 1, z)),
                        (z + 1 < side).then(|| id(x, y, z + 1)),
                    ];
                    for u in neighbors.into_iter().flatten() {
                        let g = 0.1 + uniform(&mut state);
                        t.add(v, u, -g);
                        t.add(u, v, -g);
                        diag[v] += g;
                        diag[u] += g;
                    }
                }
            }
        }
        for (i, d) in diag.into_iter().enumerate() {
            t.add(i, i, d);
        }
        t.to_csc()
    }

    /// Both numeric passes on one analysis of `a` (which must choose the
    /// supernodal path): their solutions agree within 1e-12 relative, and
    /// each path's refactor over another matrix's factors is bitwise its
    /// fresh factor.
    fn assert_paths_agree(a: &CscMatrix) {
        let supernodal = analyze(a);
        assert!(
            supernodal.supernodes.is_some(),
            "the analysis must pick panels"
        );
        let simplicial = other_path(&supernodal, a);
        let n = a.cols();
        let mut state = 17u64;
        let b: Vec<f64> = (0..n).map(|_| uniform(&mut state) - 0.5).collect();
        let x_super = factor_with(&supernodal, a).expect("factors").solve(&b);
        let x_simp = factor_with(&simplicial, a).expect("factors").solve(&b);
        let scale = x_simp.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (i, (s, p)) in x_super.iter().zip(&x_simp).enumerate() {
            assert!((s - p).abs() <= 1e-12 * scale, "unknown {i}: {s} vs {p}");
        }

        let scaled = {
            let mut t = TripletMatrix::new(n, n);
            for j in 0..n {
                for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
                    t.add(a.row_idx()[k], j, a.values()[k] * 1.75);
                }
            }
            t.to_csc()
        };
        for sym in [&supernodal, &simplicial] {
            let fresh = factor_with(sym, a).expect("factors");
            let mut refactored = factor_with(sym, &scaled).expect("factors");
            refactored.refactor(a).expect("same pattern");
            assert!(fresh
                .l_val
                .iter()
                .zip(&refactored.l_val)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            assert!(fresh
                .d
                .iter()
                .zip(&refactored.d)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        let ldl = SparseLdl::factor(a).expect("factors");
        assert_eq!(ldl.nnz(), supernodal.l_nnz() + n);
        assert_eq!(
            factor_with(&simplicial, a).expect("factors").nnz(),
            ldl.nnz()
        );
    }

    #[test]
    fn both_paths_agree_on_a_64x64_crossbar() {
        assert_paths_agree(&crossbar_64());
    }

    #[test]
    fn both_paths_agree_on_a_random_3d_mesh() {
        assert_paths_agree(&random_mesh_3d(10, 99));
    }

    #[test]
    fn postorder_keeps_fill_and_children_below_parents() {
        let a = random_mesh_3d(5, 3);
        let sym = analyze(&a);
        for j in 0..sym.n() {
            if let Some(p) = sym.parent(j) {
                assert!(p > j, "parent {p} of {j}");
            }
        }
        // The postorder is an equivalent ordering: the same fill as the
        // un-postordered AMD order.
        let order = amd::min_degree_order(
            a.cols(),
            &(0..a.cols())
                .map(|j| a.row_idx()[a.col_ptr()[j]..a.col_ptr()[j + 1]].to_vec())
                .collect::<Vec<_>>(),
        );
        let (_, counts) = etree_and_counts(&a, &order, &inverse(&order));
        assert_eq!(counts.iter().sum::<usize>(), sym.l_nnz());
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
        // A path (one-column supernodes), a dense block (one supernode)
        // and a small 3-D mesh, each on both numeric paths.
        let mut block = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let value = if i == j {
                    10.0
                } else {
                    -1.0 / (1 + i + j) as f64
                };
                block.push((i, j, value));
            }
        }
        for a in [spd_system(9, 0.25), csc(6, &block), random_mesh_3d(3, 5)] {
            let dense = a.to_dense();
            for sym in both_paths(&a) {
                let rebuilt = factor_with(&sym, &a).expect("factors").reconstruct_dense();
                for (i, row) in dense.iter().enumerate() {
                    for (j, &value) in row.iter().enumerate() {
                        assert!(
                            (rebuilt[i][j] - value).abs() < 1e-12,
                            "LDLᵀ mismatch at ({i}, {j}): {} vs {value}",
                            rebuilt[i][j]
                        );
                    }
                }
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
        for sym in both_paths(&a) {
            match factor_with(&sym, &a) {
                Err(CircuitError::SingularSystem { at }) => assert_eq!(sym.perm()[at], 1),
                other => panic!("expected SingularSystem, got {other:?}"),
            }
        }
    }

    #[test]
    fn indefinite_and_non_finite_pivots_are_typed() {
        let indefinite = csc(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        let nan = csc(2, &[(0, 0, f64::NAN), (1, 1, 1.0)]);
        for a in [indefinite, nan] {
            assert!(matches!(
                SparseLdl::factor(&a),
                Err(CircuitError::SingularSystem { .. })
            ));
            for sym in both_paths(&a) {
                assert!(matches!(
                    factor_with(&sym, &a),
                    Err(CircuitError::SingularSystem { .. })
                ));
            }
        }
    }
}
