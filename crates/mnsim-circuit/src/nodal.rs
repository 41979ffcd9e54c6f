//! The nodal system: the one assembly and engine dispatch behind every DC
//! solve.
//!
//! [`solve_dc`](crate::solve::solve_dc) and its Newton loop,
//! [`solve_transient`](crate::transient::solve_transient) and
//! [`PreparedSystem`](crate::batch::PreparedSystem) all solve through a
//! [`NodalSystem`]:
//!
//! * **Build** classifies the voltage sources, numbers the unknowns, stamps
//!   the linearized elements and attaches the engine [`Method`] selects.
//!   Grounded sources give the reduced SPD system over the undriven nodes
//!   (dense LU, sparse LDLᵀ or CG); floating sources give full modified
//!   nodal analysis with source branch currents (dense LU).
//! * **Re-stamp** replaces the element values of the same structure: the
//!   sparse engine refactors on its cached analysis
//!   ([`SparseLdl::refactor`]; a pattern drift re-analyzes), dense and full
//!   MNA re-factor, CG swaps its matrix. A Newton iteration is a re-stamp.
//! * **Re-stamp the RHS** re-records only the right-hand-side plan, for
//!   linearizations whose conductances are unchanged — the steps of a
//!   linear transient, where only the capacitor companion currents move.
//! * **Solve** replays the right-hand-side plan for one set of source
//!   voltages and back-solves, so re-driving the sources never touches the
//!   matrix.

use crate::batch::EngineKind;
use crate::cg::{solve_cg_warm, CgOptions};
use crate::dense::{DenseMatrix, LuFactors};
use crate::error::CircuitError;
use crate::ldl::SparseLdl;
use crate::mna::{Circuit, Element};
use crate::solve::{Linearized, Method};
use crate::sparse::{CsrMatrix, TripletMatrix};
use mnsim_obs::trace::{self, Level};

/// Number of unknowns below which `Method::Auto` prefers the dense LU.
const DENSE_CUTOFF: usize = 96;

/// Number of unknowns at which `Method::Auto` stops using the sparse
/// direct path and switches to conjugate gradients: a 256×256 crossbar
/// (~131k unknowns) still factorizes comfortably, while 512×512 (~524k)
/// would pay more in fill memory than CG pays in iterations.
const SPARSE_CUTOFF: usize = 200_000;

/// One `b`-vector assembly step, recorded while stamping and replayed per
/// set of source voltages.
#[derive(Debug, Clone, Copy)]
enum BOp {
    /// `b[u] += g · v(node)` where `v` is the driven voltage of `node`
    /// (0 V for ground).
    Scaled { u: usize, node: usize, g: f64 },
    /// `b[u] += c` (equivalent-current and current-source terms).
    Const { u: usize, c: f64 },
    /// `b[u] = volts[k]` (full-MNA source row).
    Source { u: usize, k: usize },
}

/// The linear engine attached to a reduced system.
#[derive(Debug, Clone)]
enum Engine {
    /// Dense LU with partial pivoting.
    Dense(LuFactors),
    /// Sparse LDLᵀ ([`crate::ldl`]).
    Sparse(SparseLdl),
    /// Jacobi-preconditioned conjugate gradients over the matrix.
    Cg(CsrMatrix),
    /// No unknowns at all (every node driven or ground).
    Empty,
}

#[derive(Debug, Clone)]
enum Form {
    /// All sources grounded: reduced SPD system.
    Reduced {
        /// node → unknown index (`usize::MAX` for ground/driven nodes).
        index: Vec<usize>,
        unknowns: usize,
        engine: Engine,
    },
    /// Floating sources: full MNA over every non-ground node plus one
    /// branch current per source.
    FullMna { n_v: usize, lu: LuFactors },
}

/// One assembled, factored nodal system. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct NodalSystem {
    node_count: usize,
    /// Per voltage source (element order): the driven node and the sign of
    /// the source value on it, or `None` for a floating source.
    bindings: Vec<Option<(usize, f64)>>,
    /// Right-hand-side replay plan of the current stamps.
    ops: Vec<BOp>,
    form: Form,
}

/// The result of [`NodalSystem::solve`].
pub(crate) struct Solved {
    /// Full node-voltage vector (ground included).
    pub(crate) voltages: Vec<f64>,
    /// The reduced solution vector (the CG warm-start state; empty for
    /// full MNA).
    pub(crate) x: Vec<f64>,
    /// CG iterations spent (0 on the direct engines).
    pub(crate) cg_iterations: usize,
}

impl NodalSystem {
    /// Assembles `circuit` under the linearization `lin` and factors it
    /// with the engine `method` selects.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] when the circuit's own sources
    /// drive one node to two voltages, or [`Method::Cg`] meets a floating
    /// source; [`CircuitError::SingularSystem`] from the factorization.
    pub(crate) fn build(
        circuit: &Circuit,
        lin: &[Option<Linearized>],
        method: Method,
    ) -> Result<Self, CircuitError> {
        let node_count = circuit.node_count();
        let bindings: Vec<Option<(usize, f64)>> = circuit
            .elements()
            .iter()
            .filter_map(|element| match element {
                Element::VoltageSource { npos, nneg, .. } => Some(if *nneg == Circuit::GROUND {
                    Some((*npos, 1.0))
                } else if *npos == Circuit::GROUND {
                    Some((*nneg, -1.0))
                } else {
                    None
                }),
                _ => None,
            })
            .collect();
        let fixed = drive(node_count, &bindings, &source_volts(circuit))?;

        let mut ops = Vec::new();
        let form = if bindings.iter().all(Option::is_some) {
            let mut index = vec![usize::MAX; node_count];
            let mut unknowns = 0usize;
            for (node, slot) in index.iter_mut().enumerate() {
                if fixed[node].is_none() {
                    *slot = unknowns;
                    unknowns += 1;
                }
            }
            let method = match method {
                Method::Auto if unknowns < DENSE_CUTOFF => Method::DenseLu,
                Method::Auto if unknowns < SPARSE_CUTOFF => Method::SparseLu,
                Method::Auto => Method::Cg,
                other => other,
            };
            let engine = match method {
                _ if unknowns == 0 => Engine::Empty,
                Method::DenseLu => Engine::Dense(
                    assemble(circuit, lin, &index, unknowns, &mut ops, dense_matrix).factor()?,
                ),
                Method::Cg => Engine::Cg(assemble(
                    circuit,
                    lin,
                    &index,
                    unknowns,
                    &mut ops,
                    TripletMatrix::to_csr,
                )),
                _ => Engine::Sparse(SparseLdl::factor(&assemble(
                    circuit,
                    lin,
                    &index,
                    unknowns,
                    &mut ops,
                    TripletMatrix::to_csc,
                ))?),
            };
            Form::Reduced {
                index,
                unknowns,
                engine,
            }
        } else {
            if method == Method::Cg {
                return Err(CircuitError::InvalidElement {
                    reason: "conjugate-gradient path requires all voltage sources grounded".into(),
                });
            }
            Form::FullMna {
                n_v: node_count - 1,
                lu: assemble_full_mna(circuit, lin, &mut ops).factor()?,
            }
        };

        Ok(NodalSystem {
            node_count,
            bindings,
            ops,
            form,
        })
    }

    /// Replaces the stamps with `lin` for a circuit of the same structure
    /// as the one this system was built from, keeping the engine.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] when the new values cannot be
    /// factored. The system must then be re-stamped before its next solve.
    pub(crate) fn restamp(
        &mut self,
        circuit: &Circuit,
        lin: &[Option<Linearized>],
    ) -> Result<(), CircuitError> {
        let ops = &mut self.ops;
        match &mut self.form {
            Form::Reduced {
                index,
                unknowns,
                engine,
            } => {
                let n = *unknowns;
                match engine {
                    Engine::Dense(lu) => {
                        *lu = assemble(circuit, lin, index, n, ops, dense_matrix).factor()?;
                    }
                    Engine::Sparse(ldl) => {
                        let csc = assemble(circuit, lin, index, n, ops, TripletMatrix::to_csc);
                        if ldl.symbolic().compatible_with(&csc) {
                            ldl.refactor(&csc)?;
                        } else {
                            *ldl = SparseLdl::factor(&csc)?;
                        }
                    }
                    Engine::Cg(csr) => {
                        *csr = assemble(circuit, lin, index, n, ops, TripletMatrix::to_csr);
                    }
                    Engine::Empty => {}
                }
            }
            Form::FullMna { lu, .. } => *lu = assemble_full_mna(circuit, lin, ops).factor()?,
        }
        Ok(())
    }

    /// Re-records only the right-hand-side plan for `lin`, keeping the
    /// stamped matrix and its factorization. `lin` must carry the
    /// conductances of the current stamps and may differ only in its
    /// equivalent currents: the steps of a linear transient, whose
    /// capacitor companion currents are the only values that move.
    pub(crate) fn restamp_rhs(&mut self, circuit: &Circuit, lin: &[Option<Linearized>]) {
        match &self.form {
            Form::Reduced { index, .. } => stamp_reduced(circuit, lin, index, &mut self.ops, None),
            Form::FullMna { .. } => stamp_full_mna(circuit, lin, &mut self.ops, None),
        }
    }

    /// Solves for one set of source voltages (`volts`, element order).
    /// `warm` starts CG from a previous [`Solved::x`]; the direct engines
    /// ignore it.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] when `volts` drives one node to two
    /// voltages; solver failures from the engine.
    pub(crate) fn solve(
        &self,
        volts: &[f64],
        warm: Option<&[f64]>,
        cg: &CgOptions,
    ) -> Result<Solved, CircuitError> {
        let fixed = drive(self.node_count, &self.bindings, volts)?;
        match &self.form {
            Form::FullMna { n_v, lu } => {
                let mut b = vec![0.0; lu.n()];
                for op in &self.ops {
                    match *op {
                        BOp::Const { u, c } => b[u] += c,
                        BOp::Source { u, k } => b[u] = volts[k],
                        BOp::Scaled { .. } => {}
                    }
                }
                let x = lu.solve(&b)?;
                let mut voltages = vec![0.0; self.node_count];
                voltages[1..].copy_from_slice(&x[..*n_v]);
                Ok(Solved {
                    voltages,
                    x: Vec::new(),
                    cg_iterations: 0,
                })
            }
            Form::Reduced {
                index,
                unknowns,
                engine,
            } => {
                let mut b = vec![0.0; *unknowns];
                for op in &self.ops {
                    match *op {
                        // A scaled term's node is ground or driven.
                        BOp::Scaled { u, node, g } => {
                            if let Some(v) = fixed[node] {
                                b[u] += g * v;
                            }
                        }
                        BOp::Const { u, c } => b[u] += c,
                        BOp::Source { .. } => {}
                    }
                }
                let (x, cg_iterations) = match engine {
                    Engine::Dense(lu) => (lu.solve(&b)?, 0),
                    Engine::Sparse(ldl) => (ldl.solve(&b), 0),
                    Engine::Cg(csr) => {
                        let (x, stats) = solve_cg_warm(csr, &b, warm, cg)?;
                        (x, stats.iterations)
                    }
                    Engine::Empty => (Vec::new(), 0),
                };
                let voltages = fixed
                    .iter()
                    .zip(index)
                    .map(|(v, &u)| v.unwrap_or_else(|| x[u]))
                    .collect();
                Ok(Solved {
                    voltages,
                    x,
                    cg_iterations,
                })
            }
        }
    }

    /// The concrete engine this system dispatches to.
    pub(crate) fn engine_kind(&self) -> EngineKind {
        match &self.form {
            Form::FullMna { .. } => EngineKind::FullMna,
            Form::Reduced { engine, .. } => match engine {
                Engine::Dense(_) => EngineKind::Dense,
                Engine::Sparse(_) => EngineKind::SparseDirect,
                Engine::Cg(_) => EngineKind::Iterative,
                Engine::Empty => EngineKind::Empty,
            },
        }
    }

    /// Rough resident size in bytes, dominated by the cached factorization.
    pub(crate) fn approx_bytes(&self) -> usize {
        let plan = self.bindings.len() * 16 + self.ops.len() * 24;
        plan + match &self.form {
            Form::Reduced {
                index,
                unknowns,
                engine,
            } => {
                index.len() * 8
                    + match engine {
                        Engine::Dense(_) => unknowns * unknowns * 8 + unknowns * 8,
                        Engine::Sparse(ldl) => ldl.approx_bytes(),
                        Engine::Cg(matrix) => matrix.nnz() * 12 + unknowns * 8,
                        Engine::Empty => 0,
                    }
            }
            Form::FullMna { lu, .. } => lu.n() * lu.n() * 8 + lu.n() * 8,
        }
    }
}

/// The value of every voltage source, in element order.
pub(crate) fn source_volts(circuit: &Circuit) -> Vec<f64> {
    circuit
        .elements()
        .iter()
        .filter_map(|element| match element {
            Element::VoltageSource { voltage, .. } => Some(voltage.volts()),
            _ => None,
        })
        .collect()
}

/// Node voltages fixed by the grounded sources at `volts`: 0 V for ground,
/// the source value for a driven node, `None` for a free node.
fn drive(
    node_count: usize,
    bindings: &[Option<(usize, f64)>],
    volts: &[f64],
) -> Result<Vec<Option<f64>>, CircuitError> {
    let mut fixed = vec![None; node_count];
    fixed[Circuit::GROUND] = Some(0.0);
    for (binding, &volt) in bindings.iter().zip(volts) {
        let Some((node, sign)) = *binding else {
            continue;
        };
        let value = sign * volt;
        match fixed[node] {
            Some(existing) if existing != value => {
                return Err(CircuitError::InvalidElement {
                    reason: format!("node {node} driven to both {existing} V and {value} V"),
                });
            }
            _ => fixed[node] = Some(value),
        }
    }
    Ok(fixed)
}

/// The reduced nodal matrix of `circuit`, whose sources must all be
/// grounded, at its low-field linearization — test support for the
/// engines.
#[cfg(test)]
pub(crate) fn reduced_matrix(circuit: &Circuit) -> crate::sparse::CscMatrix {
    let mut index = vec![0usize; circuit.node_count()];
    index[Circuit::GROUND] = usize::MAX;
    for element in circuit.elements() {
        if let Element::VoltageSource { npos, nneg, .. } = element {
            index[*npos] = usize::MAX;
            index[*nneg] = usize::MAX;
        }
    }
    let mut unknowns = 0;
    for slot in index.iter_mut().filter(|slot| **slot == 0) {
        *slot = unknowns;
        unknowns += 1;
    }
    let lin = crate::solve::linearize(circuit, None);
    assemble(
        circuit,
        &lin,
        &index,
        unknowns,
        &mut Vec::new(),
        TripletMatrix::to_csc,
    )
}

fn dense_matrix(triplets: &TripletMatrix) -> DenseMatrix {
    DenseMatrix::from_rows(&triplets.to_csr().to_dense())
}

/// Stamps the reduced matrix and converts it to the form its engine
/// takes, under the `circuit.assemble` trace span.
fn assemble<T>(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    index: &[usize],
    unknowns: usize,
    ops: &mut Vec<BOp>,
    convert: impl FnOnce(&TripletMatrix) -> T,
) -> T {
    let _span = trace::span("circuit.assemble", Level::Stage);
    let mut triplets = TripletMatrix::new(unknowns, unknowns);
    stamp_reduced(circuit, lin, index, ops, Some(&mut triplets));
    convert(&triplets)
}

/// Stamps the full-MNA matrix under the `circuit.assemble` trace span.
fn assemble_full_mna(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    ops: &mut Vec<BOp>,
) -> DenseMatrix {
    let _span = trace::span("circuit.assemble", Level::Stage);
    let mut a = DenseMatrix::zeros(circuit.node_count() - 1 + circuit.source_count());
    stamp_full_mna(circuit, lin, ops, Some(&mut a));
    a
}

/// Stamps the reduced system: every conductive branch into `matrix` (when
/// given), with branches to fixed nodes and equivalent currents into the
/// RHS plan `ops` (cleared first, so a re-stamp reuses its allocation).
fn stamp_reduced(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    index: &[usize],
    ops: &mut Vec<BOp>,
    mut matrix: Option<&mut TripletMatrix>,
) {
    ops.clear();
    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                // Capacitors only carry a companion in transient mode.
                let Some(Linearized { g, ieq }) = lin[idx] else {
                    continue;
                };
                // KCL at n1: +g(v1 − v2) + ieq ; at n2: −g(v1 − v2) − ieq.
                for (u, other, c) in [(index[*n1], *n2, -ieq), (index[*n2], *n1, ieq)] {
                    if u == usize::MAX {
                        continue;
                    }
                    let v = index[other];
                    if let Some(m) = matrix.as_deref_mut() {
                        m.add(u, u, g);
                        if v != usize::MAX {
                            m.add(u, v, -g);
                        }
                    }
                    if v == usize::MAX {
                        ops.push(BOp::Scaled { u, node: other, g });
                    }
                    ops.push(BOp::Const { u, c });
                }
            }
            Element::CurrentSource { from, to, current } => {
                let i = current.amperes();
                for (u, c) in [(index[*from], -i), (index[*to], i)] {
                    if u != usize::MAX {
                        ops.push(BOp::Const { u, c });
                    }
                }
            }
            Element::VoltageSource { .. } => {} // encoded via the bindings
        }
    }
}

/// Stamps the full-MNA system: node rows `node - 1`, then one branch
/// row/column per voltage source, into `matrix` when given; the RHS plan
/// goes to `ops` as in [`stamp_reduced`].
fn stamp_full_mna(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    ops: &mut Vec<BOp>,
    mut matrix: Option<&mut DenseMatrix>,
) {
    let n_v = circuit.node_count() - 1;
    ops.clear();
    // node id → matrix row (ground has none).
    let row = |node: usize| node.checked_sub(1);
    let mut k = 0usize;
    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                let Some(Linearized { g, ieq }) = lin[idx] else {
                    continue;
                };
                for (r, other, c) in [(row(*n1), row(*n2), -ieq), (row(*n2), row(*n1), ieq)] {
                    let Some(r) = r else { continue };
                    if let Some(a) = matrix.as_deref_mut() {
                        a[(r, r)] += g;
                        if let Some(o) = other {
                            a[(r, o)] -= g;
                        }
                    }
                    ops.push(BOp::Const { u: r, c });
                }
            }
            Element::CurrentSource { from, to, current } => {
                let i = current.amperes();
                for (r, c) in [(row(*from), -i), (row(*to), i)] {
                    if let Some(r) = r {
                        ops.push(BOp::Const { u: r, c });
                    }
                }
            }
            Element::VoltageSource { .. } => {}
        }
    }
    for element in circuit.elements() {
        if let Element::VoltageSource { npos, nneg, .. } = element {
            let col = n_v + k;
            if let Some(a) = matrix.as_deref_mut() {
                for (node, sign) in [(*npos, 1.0), (*nneg, -1.0)] {
                    if let Some(r) = row(node) {
                        a[(r, col)] += sign;
                        a[(col, r)] += sign;
                    }
                }
            }
            ops.push(BOp::Source { u: col, k });
            k += 1;
        }
    }
}
