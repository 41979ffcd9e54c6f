//! Supernodal multifrontal numeric pass and solve.
//!
//! A *fundamental supernode* is a run of consecutive columns `f..=l` of
//! the postordered `L` in which each column is the only child of the next
//! one and has exactly one more entry: all its columns share the row
//! structure below `l`, so the supernode's columns of `L` form one dense
//! `m × k` **panel** (`k` columns, `m` rows: the supernode's own `k`
//! columns, then the rows below). The numeric pass walks the supernodes
//! in postorder and for each one:
//!
//! 1. assembles A's lower entries of its columns into the panel;
//! 2. extend-adds its children's update matrices, which in postorder are
//!    the topmost entries of the update stack;
//! 3. runs a dense left-looking LDLᵀ on the `k` pivot columns;
//! 4. pushes its own update matrix `U = F₂₂ − L₂₁·D·L₂₁ᵀ` onto the stack
//!    (the children's contributions to `F₂₂` are summed in first).
//!
//! Panels are stored column-major with all `m` rows per column, so the
//! strict upper triangle of each diagonal block is padding. Update
//! matrices are packed lower triangles, column-major.

use super::ROOT;
use crate::error::CircuitError;
use crate::sparse::CscMatrix;

/// The supernode partition of a postordered elimination tree, with every
/// supernode's row structure and panel layout.
#[derive(Debug, Clone)]
pub(super) struct Supernodes {
    /// First column of each supernode, then `n` (one entry more than
    /// there are supernodes).
    first: Vec<usize>,
    /// Start of each supernode's row list in `rows`.
    rows_ptr: Vec<usize>,
    /// Row structure of each supernode: its own columns, then the rows of
    /// `L` below them, ascending.
    rows: Vec<u32>,
    /// Start of each supernode's panel in the factor's value array.
    panel_ptr: Vec<usize>,
    /// Number of child supernodes, i.e. of update matrices to pop.
    children: Vec<u32>,
    /// Rows of the tallest panel.
    max_front: usize,
    /// Entries of the largest update matrix.
    max_update: usize,
    /// Peak number of entries on the update stack during a numeric pass.
    stack_peak: usize,
}

/// Offset of column `c` of a packed `r × r` lower triangle.
fn packed_start(r: usize, c: usize) -> usize {
    c * (2 * r - c + 1) / 2
}

/// Entries of a packed `r × r` lower triangle.
fn packed_len(r: usize) -> usize {
    r * (r + 1) / 2
}

impl Supernodes {
    /// Partitions the columns of `L` into fundamental supernodes and
    /// records their row structures. `perm`/`pinv` must already include
    /// the postorder, and `parent`/`counts` (off-diagonal entries per
    /// column) be given in that order.
    pub(super) fn build(
        a: &CscMatrix,
        perm: &[usize],
        pinv: &[usize],
        parent: &[usize],
        counts: &[usize],
    ) -> Supernodes {
        let n = perm.len();
        let mut child_cols = vec![0u32; n];
        for &p in parent {
            if p != ROOT {
                child_cols[p] += 1;
            }
        }
        let mut first = vec![0];
        for j in 1..n {
            let chained =
                parent[j - 1] == j && counts[j - 1] == counts[j] + 1 && child_cols[j] == 1;
            if !chained {
                first.push(j);
            }
        }
        first.push(n);
        let count = first.len() - 1;
        let mut snode = vec![0usize; n];
        for s in 0..count {
            snode[first[s]..first[s + 1]].fill(s);
        }

        let (mut rows_ptr, mut panel_ptr) = (vec![0], vec![0]);
        let mut children = vec![0u32; count];
        let (mut max_front, mut max_update) = (0, 0);
        for s in 0..count {
            let last = first[s + 1] - 1;
            let k = last + 1 - first[s];
            let m = k + counts[last];
            rows_ptr.push(rows_ptr[s] + m);
            panel_ptr.push(panel_ptr[s] + m * k);
            max_front = max_front.max(m);
            max_update = max_update.max(packed_len(m - k));
            if parent[last] != ROOT {
                children[snode[parent[last]]] += 1;
            }
        }

        // Row k of L is nonzero in every column on the tree path from an
        // entry a_ik (i < k) of PAPᵀ up to k. Within a fundamental
        // supernode that path runs through its last column, so the walk
        // can step supernode by supernode; visiting rows k in ascending
        // order leaves every row list sorted.
        let mut rows = vec![0u32; rows_ptr[count]];
        let mut fill: Vec<usize> = (0..count)
            .map(|s| {
                let own = first[s]..first[s + 1];
                let start = rows_ptr[s];
                for (slot, col) in rows[start..start + own.len()].iter_mut().zip(own.clone()) {
                    *slot = col as u32;
                }
                start + own.len()
            })
            .collect();
        let mut flag = vec![ROOT; count];
        let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());
        for k in 0..n {
            flag[snode[k]] = k;
            let old = perm[k];
            for &row in &row_idx[col_ptr[old]..col_ptr[old + 1]] {
                let i = pinv[row];
                if i >= k {
                    continue;
                }
                let mut s = snode[i];
                while flag[s] != k {
                    flag[s] = k;
                    rows[fill[s]] = k as u32;
                    fill[s] += 1;
                    s = snode[parent[first[s + 1] - 1]];
                }
            }
        }
        debug_assert!((0..count).all(|s| fill[s] == rows_ptr[s + 1]));

        // Replay the stack discipline of the numeric pass for its peak.
        let mut sizes = Vec::new();
        let (mut depth, mut stack_peak) = (0usize, 0usize);
        for s in 0..count {
            for _ in 0..children[s] {
                depth -= sizes.pop().unwrap_or(0);
            }
            let below = rows_ptr[s + 1] - rows_ptr[s] - (first[s + 1] - first[s]);
            if below > 0 {
                sizes.push(packed_len(below));
                depth += packed_len(below);
                stack_peak = stack_peak.max(depth);
            }
        }

        Supernodes {
            first,
            rows_ptr,
            rows,
            panel_ptr,
            children,
            max_front,
            max_update,
            stack_peak,
        }
    }

    /// Number of supernodes.
    fn len(&self) -> usize {
        self.children.len()
    }

    /// Entries of all panels together, padding included.
    pub(super) fn panel_len(&self) -> usize {
        self.panel_ptr[self.len()]
    }

    /// Bytes held by the row structures and layout vectors, plus the
    /// update stack and front workspace a numeric pass allocates.
    pub(super) fn approx_bytes(&self) -> usize {
        self.rows.len() * 4
            + (self.first.len() + self.rows_ptr.len() + self.panel_ptr.len()) * 8
            + self.children.len() * 4
            + (self.stack_peak + self.max_update) * 8
    }

    /// Supernode `s`: its first column, its number of columns `k`, and its
    /// row list (`m` entries).
    fn front(&self, s: usize) -> (usize, usize, &[u32]) {
        let f = self.first[s];
        let rows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
        (f, self.first[s + 1] - f, rows)
    }

    /// Every supernode's first column, number of columns, row list and
    /// panel, in postorder.
    fn panels<'a>(
        &'a self,
        panels: &'a [f64],
    ) -> impl DoubleEndedIterator<Item = (usize, usize, &'a [u32], &'a [f64])> + 'a {
        let layout = self.first.windows(2).zip(self.rows_ptr.windows(2));
        layout
            .zip(self.panel_ptr.windows(2))
            .map(move |((cols, rows), panel)| {
                (
                    cols[0],
                    cols[1] - cols[0],
                    &self.rows[rows[0]..rows[1]],
                    &panels[panel[0]..panel[1]],
                )
            })
    }

    /// The multifrontal numeric pass: fills `panels` (laid out by
    /// `panel_ptr`) with `L` and `d` with the pivots.
    pub(super) fn numeric(
        &self,
        a: &CscMatrix,
        perm: &[usize],
        pinv: &[usize],
        panels: &mut [f64],
        d: &mut [f64],
    ) -> Result<(), CircuitError> {
        let (col_ptr, row_idx, values) = (a.col_ptr(), a.row_idx(), a.values());
        // Global row → position in the current front.
        let mut map = vec![0usize; perm.len()];
        let mut stack: Vec<f64> = Vec::with_capacity(self.stack_peak);
        let mut owners: Vec<usize> = Vec::new();
        let mut work = vec![0.0f64; self.max_update];
        let mut scale = vec![0.0f64; self.max_front];

        for s in 0..self.len() {
            let (f, k, rows) = self.front(s);
            let m = rows.len();
            let r = m - k;
            let panel = &mut panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            panel.fill(0.0);
            let update = &mut work[..packed_len(r)];
            update.fill(0.0);
            for (local, &row) in rows.iter().enumerate() {
                map[row as usize] = local;
            }

            for j in 0..k {
                let column = &mut panel[j * m..(j + 1) * m];
                let old = perm[f + j];
                for p in col_ptr[old]..col_ptr[old + 1] {
                    let i = pinv[row_idx[p]];
                    if i >= f + j {
                        column[map[i]] += values[p];
                    }
                }
            }

            for _ in 0..self.children[s] {
                let c = owners.pop().expect("every child's update is on the stack");
                let (_, kc, crows) = self.front(c);
                let below = &crows[kc..];
                let base = stack.len() - packed_len(below.len());
                let mut entries = stack[base..].iter();
                for (cj, &gcol) in below.iter().enumerate() {
                    let col = map[gcol as usize];
                    let targets = below[cj..].iter().map(|&g| map[g as usize]);
                    if col < k {
                        let column = &mut panel[col * m..(col + 1) * m];
                        for (row, &v) in targets.zip(&mut entries) {
                            column[row] += v;
                        }
                    } else {
                        let start = packed_start(r, col - k);
                        let column = &mut update[start..start + m - col];
                        for (row, &v) in targets.zip(&mut entries) {
                            column[row - col] += v;
                        }
                    }
                }
                stack.truncate(base);
            }

            for j in 0..k {
                for (t, sc) in scale[..j].iter_mut().enumerate() {
                    *sc = panel[t * m + j] * d[f + t];
                }
                let (done, rest) = panel.split_at_mut(j * m);
                let column = &mut rest[j..m];
                sub_columns(column, done, m, j, &scale[..j]);
                let dj = column[0];
                if !(dj > 0.0 && dj.is_finite()) {
                    return Err(CircuitError::SingularSystem { at: f + j });
                }
                d[f + j] = dj;
                for l in &mut column[1..] {
                    *l /= dj;
                }
            }

            for c in 0..r {
                for (t, sc) in scale[..k].iter_mut().enumerate() {
                    *sc = panel[t * m + k + c] * d[f + t];
                }
                let start = packed_start(r, c);
                sub_columns(
                    &mut update[start..start + r - c],
                    panel,
                    m,
                    k + c,
                    &scale[..k],
                );
            }
            if r > 0 {
                stack.extend_from_slice(update);
                owners.push(s);
            }
        }
        Ok(())
    }

    /// Solves `L·D·Lᵀ·x = b` in place over the panels, in permuted
    /// coordinates. The columns of a panel are taken four at a time, so
    /// each row of `x` they touch is read and written once per four
    /// columns; the rest go one by one.
    pub(super) fn solve(&self, panels: &[f64], d: &[f64], x: &mut [f64]) {
        for (f, k, rows, panel) in self.panels(panels) {
            let m = rows.len();
            let quads = k / 4 * 4;
            for j in (0..quads).step_by(4) {
                let (l0, l1, l2, l3) = quad(panel, m, j);
                let x0 = x[f + j];
                let x1 = x[f + j + 1] - l0[1] * x0;
                let x2 = x[f + j + 2] - l0[2] * x0 - l1[2] * x1;
                let x3 = x[f + j + 3] - l0[3] * x0 - l1[3] * x1 - l2[3] * x2;
                x[f + j + 1..f + j + 4].copy_from_slice(&[x1, x2, x3]);
                let columns = l0[4..]
                    .iter()
                    .zip(&l1[4..])
                    .zip(l2[4..].iter().zip(&l3[4..]));
                for (&row, ((&a, &b), (&c, &e))) in rows[j + 4..].iter().zip(columns) {
                    x[row as usize] -= a * x0 + b * x1 + c * x2 + e * x3;
                }
            }
            for j in quads..k {
                let xj = x[f + j];
                for (&row, &l) in rows[j + 1..].iter().zip(&panel[j * m + j + 1..(j + 1) * m]) {
                    x[row as usize] -= l * xj;
                }
            }
        }
        for (xj, dj) in x.iter_mut().zip(d) {
            *xj /= dj;
        }
        for (f, k, rows, panel) in self.panels(panels).rev() {
            let m = rows.len();
            let quads = k / 4 * 4;
            for j in (quads..k).rev() {
                let mut xj = x[f + j];
                for (&row, &l) in rows[j + 1..].iter().zip(&panel[j * m + j + 1..(j + 1) * m]) {
                    xj -= l * x[row as usize];
                }
                x[f + j] = xj;
            }
            for j in (0..quads).step_by(4).rev() {
                let (l0, l1, l2, l3) = quad(panel, m, j);
                let mut sums = [0.0f64; 4];
                let columns = l0[4..]
                    .iter()
                    .zip(&l1[4..])
                    .zip(l2[4..].iter().zip(&l3[4..]));
                for (&row, ((&a, &b), (&c, &e))) in rows[j + 4..].iter().zip(columns) {
                    let xi = x[row as usize];
                    sums[0] += a * xi;
                    sums[1] += b * xi;
                    sums[2] += c * xi;
                    sums[3] += e * xi;
                }
                let x3 = x[f + j + 3] - sums[3];
                let x2 = x[f + j + 2] - sums[2] - l2[3] * x3;
                let x1 = x[f + j + 1] - sums[1] - l1[2] * x2 - l1[3] * x3;
                let x0 = x[f + j] - sums[0] - l0[1] * x1 - l0[2] * x2 - l0[3] * x3;
                x[f + j..f + j + 4].copy_from_slice(&[x0, x1, x2, x3]);
            }
        }
    }

    /// Every stored entry of `L` as `(row, column, value)` — test support.
    #[cfg(test)]
    pub(super) fn entries(&self, panels: &[f64]) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for s in 0..self.len() {
            let (f, k, rows) = self.front(s);
            let m = rows.len();
            for j in 0..k {
                for i in j + 1..m {
                    out.push((
                        rows[i] as usize,
                        f + j,
                        panels[self.panel_ptr[s] + j * m + i],
                    ));
                }
            }
        }
        out
    }
}

/// `y −= Σₜ s[t] · xₜ`, where `xₜ` is column `t` of `panel` (`m` rows per
/// column) from row `from` on: one front column updated by the finished
/// pivot columns, eight at a time.
fn sub_columns(y: &mut [f64], panel: &[f64], m: usize, from: usize, s: &[f64]) {
    let len = y.len();
    let col = |t: usize| &panel[t * m + from..t * m + from + len];
    let mut t = 0;
    while t + 8 <= s.len() {
        let x: [&[f64]; 8] = std::array::from_fn(|u| col(t + u));
        let q = &s[t..t + 8];
        for i in 0..len {
            let lo = q[0] * x[0][i] + q[1] * x[1][i] + q[2] * x[2][i] + q[3] * x[3][i];
            let hi = q[4] * x[4][i] + q[5] * x[5][i] + q[6] * x[6][i] + q[7] * x[7][i];
            y[i] -= lo + hi;
        }
        t += 8;
    }
    for &st in &s[t..] {
        for (yi, &a) in y.iter_mut().zip(col(t)) {
            *yi -= st * a;
        }
        t += 1;
    }
}

/// Columns `j..j + 4` of a panel with `m` rows, each from row `j` on.
fn quad(panel: &[f64], m: usize, j: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
    let col = |t: usize| &panel[t * m + j..(t + 1) * m];
    (col(j), col(j + 1), col(j + 2), col(j + 3))
}
