//! DC operating-point analysis.
//!
//! [`solve_dc`] computes the DC solution of a [`Circuit`] on the crate's one
//! nodal-system assembly (the `nodal` module), built once per call:
//!
//! 1. **Linear circuits** are solved in one shot. If every voltage source is
//!    referenced to ground (true for every crossbar netlist), the nodal
//!    matrix reduced over the driven nodes is symmetric positive-definite
//!    and goes to dense LU, sparse LDLᵀ or Jacobi-preconditioned
//!    conjugate gradients by size; circuits with floating sources use a
//!    dense LU over the full modified-nodal-analysis system.
//! 2. **Non-linear circuits** (memristors with a sinh I-V model) are solved
//!    by Newton-Raphson: each memristor is replaced by its companion model
//!    (differential conductance + equivalent current source) at the present
//!    operating point, the system is re-stamped, and the linear solve is
//!    repeated until the node voltages stop moving. Re-stamping keeps the
//!    sparse engine's symbolic analysis, so a Newton solve analyzes once.

use mnsim_obs as obs;
use mnsim_tech::memristor::IvModel;

use crate::batch::EngineKind;
use crate::cg::CgOptions;
use crate::error::CircuitError;
use crate::mna::{Circuit, DcSolution, Element};
use crate::nodal::{source_volts, NodalSystem};

static DC_SOLVES: obs::Counter = obs::Counter::new("circuit.solve.dc_solves");
static DC_SPAN: obs::Span = obs::Span::new("circuit.solve.dc");
static LINEAR_DENSE: obs::Counter = obs::Counter::new("circuit.solve.dense_lu");
static LINEAR_SPARSE: obs::Counter = obs::Counter::new("circuit.solve.sparse_lu");
static LINEAR_CG: obs::Counter = obs::Counter::new("circuit.solve.cg");
static LINEAR_FULL_MNA: obs::Counter = obs::Counter::new("circuit.solve.full_mna");
static NEWTON_ITERATIONS: obs::Counter = obs::Counter::new("circuit.solve.newton_iterations");

/// Linear-solver selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Dense LU below `DENSE_CUTOFF` (96) unknowns, sparse LDLᵀ up to
    /// `SPARSE_CUTOFF` (200 000), conjugate gradients beyond (all for
    /// grounded-source systems; floating sources use full MNA).
    #[default]
    Auto,
    /// Force the dense LU path (exact, `O(n³)`).
    DenseLu,
    /// Force the sparse direct path, sparse LDLᵀ ([`crate::ldl`]; exact,
    /// fill-bounded). The name predates the LDLᵀ engine and is kept for
    /// compatibility; floating sources still use full-MNA dense LU.
    SparseLu,
    /// Force conjugate gradients (requires grounded voltage sources).
    Cg,
}

/// Options for [`solve_dc`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Linear-solver selection.
    pub method: Method,
    /// Conjugate-gradient parameters.
    pub cg: CgOptions,
    /// Newton convergence threshold on the largest node-voltage update, in
    /// volts.
    pub newton_tolerance: f64,
    /// Newton iteration cap.
    pub newton_max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: Method::Auto,
            cg: CgOptions::default(),
            newton_tolerance: 1e-9,
            newton_max_iterations: 60,
        }
    }
}

/// One linearized conductive branch: `I(n1→n2) = g·(v1 − v2) + i_eq`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Linearized {
    pub(crate) g: f64,
    pub(crate) ieq: f64,
}

/// Solves the DC operating point of `circuit`.
///
/// # Errors
///
/// Propagates solver failures ([`CircuitError::SingularSystem`],
/// [`CircuitError::LinearNoConvergence`],
/// [`CircuitError::NewtonNoConvergence`]) and topology errors (a node driven
/// by two conflicting sources, CG requested for floating sources).
pub fn solve_dc(circuit: &Circuit, options: &SolveOptions) -> Result<DcSolution, CircuitError> {
    let _span = DC_SPAN.enter();
    let _trace_span = obs::trace::span("circuit.solve_dc", obs::trace::Level::Stage);
    DC_SOLVES.inc();
    let lin = linearize(circuit, None);
    let mut system = NodalSystem::build(circuit, &lin, options.method)?;
    newton(&mut system, circuit, &source_volts(circuit), &lin, options)
}

/// [`solve_dc`] on an already-built `system` that holds the stamps of the
/// low-field linearization `lin`, with the sources at `volts`. Counted and
/// timed like [`solve_dc`]; leaves `system` stamped at the last Newton
/// iterate.
pub(crate) fn solve_dc_on(
    system: &mut NodalSystem,
    circuit: &Circuit,
    volts: &[f64],
    lin: &[Option<Linearized>],
    options: &SolveOptions,
) -> Result<DcSolution, CircuitError> {
    let _span = DC_SPAN.enter();
    let _trace_span = obs::trace::span("circuit.solve_dc", obs::trace::Level::Stage);
    DC_SOLVES.inc();
    newton(system, circuit, volts, lin, options)
}

/// One linear solve of a linear circuit; Newton-Raphson for circuits with
/// non-linear memristors, re-stamping `system` with each iteration's
/// companion models until the node voltages stop moving.
fn newton(
    system: &mut NodalSystem,
    circuit: &Circuit,
    volts: &[f64],
    lin: &[Option<Linearized>],
    options: &SolveOptions,
) -> Result<DcSolution, CircuitError> {
    // Initial operating point: every memristor at its low-field resistance.
    let mut voltages = solve_step(system, volts, &options.cg)?;
    if !circuit.is_nonlinear() {
        return finish(circuit, lin, voltages);
    }

    for _ in 0..options.newton_max_iterations {
        NEWTON_ITERATIONS.inc();
        system.restamp(circuit, &linearize(circuit, Some(&voltages)))?;
        let next = solve_step(system, volts, &options.cg)?;
        let max_update = voltages
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        voltages = next;
        if max_update < options.newton_tolerance {
            let lin = linearize(circuit, Some(&voltages));
            return finish(circuit, &lin, voltages);
        }
    }

    Err(CircuitError::NewtonNoConvergence {
        iterations: options.newton_max_iterations,
        last_update: f64::NAN,
    })
}

/// One cold linear solve on behalf of [`solve_dc`], a Newton iteration or
/// a transient step, counted under `circuit.solve.*` by engine. Returns
/// the full node-voltage vector.
pub(crate) fn solve_step(
    system: &NodalSystem,
    volts: &[f64],
    cg: &CgOptions,
) -> Result<Vec<f64>, CircuitError> {
    match system.engine_kind() {
        EngineKind::Dense => LINEAR_DENSE.inc(),
        EngineKind::SparseDirect => LINEAR_SPARSE.inc(),
        EngineKind::Iterative => LINEAR_CG.inc(),
        EngineKind::FullMna => LINEAR_FULL_MNA.inc(),
        EngineKind::Empty => {}
    }
    Ok(system.solve(volts, None, cg)?.voltages)
}

/// Produces the per-element linearization. `operating_point` supplies node
/// voltages for the Newton companion models; `None` linearizes memristors at
/// their low-field state.
pub(crate) fn linearize(
    circuit: &Circuit,
    operating_point: Option<&[f64]>,
) -> Vec<Option<Linearized>> {
    circuit
        .elements()
        .iter()
        .map(|element| match element {
            Element::Resistor { resistance, .. } => Some(Linearized {
                g: 1.0 / resistance.ohms(),
                ieq: 0.0,
            }),
            Element::Memristor { n1, n2, state, iv } => match (iv, operating_point) {
                (IvModel::Linear, _) | (_, None) => Some(Linearized {
                    g: 1.0 / state.ohms(),
                    ieq: 0.0,
                }),
                (IvModel::Sinh { .. }, Some(v)) => {
                    let vd = v[*n1] - v[*n2];
                    let bias = mnsim_tech::units::Voltage::from_volts(vd);
                    let g_d = 1.0 / iv.differential_resistance(*state, bias).ohms();
                    let i = iv.current(*state, bias).amperes();
                    Some(Linearized {
                        g: g_d,
                        ieq: i - g_d * vd,
                    })
                }
            },
            Element::VoltageSource { .. } | Element::CurrentSource { .. } => None,
            // Capacitors are open circuits at DC; the transient solver
            // replaces them with backward-Euler companions.
            Element::Capacitor { .. } => None,
        })
        .collect()
}

/// Computes per-element branch currents and wraps the solution.
pub(crate) fn finish(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    voltages: Vec<f64>,
) -> Result<DcSolution, CircuitError> {
    let mut currents = vec![0.0; circuit.element_count()];

    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                // Capacitors carry zero current at DC (no companion).
                if let Some(Linearized { g, ieq }) = lin[idx] {
                    currents[idx] = g * (voltages[*n1] - voltages[*n2]) + ieq;
                }
            }
            Element::CurrentSource { current, .. } => {
                currents[idx] = current.amperes();
            }
            Element::VoltageSource { .. } => {} // second pass below
        }
    }

    // Voltage-source branch currents by KCL at the positive terminal:
    // i_branch (npos → nneg internal) = −(current delivered into the node).
    for (idx, element) in circuit.elements().iter().enumerate() {
        if let Element::VoltageSource { npos, nneg, .. } = element {
            let node = if *npos != Circuit::GROUND { *npos } else { *nneg };
            let sign = if *npos != Circuit::GROUND { 1.0 } else { -1.0 };
            let mut leaving = 0.0;
            for (jdx, other) in circuit.elements().iter().enumerate() {
                if jdx == idx {
                    continue;
                }
                match other {
                    Element::Resistor { n1, n2, .. }
                    | Element::Memristor { n1, n2, .. }
                    | Element::Capacitor { n1, n2, .. } => {
                        if *n1 == node {
                            leaving += currents[jdx];
                        } else if *n2 == node {
                            leaving -= currents[jdx];
                        }
                    }
                    Element::CurrentSource { from, to, .. } => {
                        if *from == node {
                            leaving += currents[jdx];
                        } else if *to == node {
                            leaving -= currents[jdx];
                        }
                    }
                    Element::VoltageSource { .. } => {
                        // Series ideal sources on a non-ground node would
                        // need the full-MNA current; grounded crossbar
                        // netlists never hit this.
                    }
                }
            }
            currents[idx] = sign * -leaving;
        }
    }

    Ok(DcSolution::new(voltages, currents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::units::{Current, Resistance, Voltage};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(10.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(sol.voltage(mid).volts(), 7.5, 1e-9);
    }

    #[test]
    fn divider_matches_on_all_methods() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        for method in [Method::Auto, Method::DenseLu, Method::SparseLu, Method::Cg] {
            let options = SolveOptions {
                method,
                ..SolveOptions::default()
            };
            let sol = solve_dc(&c, &options).unwrap();
            assert_close(sol.voltage(mid).volts(), 0.5, 1e-8);
        }
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.add_node();
        c.add_current_source(Circuit::GROUND, n, Current::from_amperes(2e-3))
            .unwrap();
        c.add_resistor(n, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(sol.voltage(n).volts(), 2.0, 1e-9);
    }

    #[test]
    fn wheatstone_bridge_balance() {
        // Balanced bridge: zero volts across the detector resistor.
        let mut c = Circuit::new();
        let top = c.add_node();
        let left = c.add_node();
        let right = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(5.0))
            .unwrap();
        let r = Resistance::from_kilo_ohms(1.0);
        c.add_resistor(top, left, r).unwrap();
        c.add_resistor(top, right, r).unwrap();
        c.add_resistor(left, Circuit::GROUND, r).unwrap();
        c.add_resistor(right, Circuit::GROUND, r).unwrap();
        c.add_resistor(left, right, Resistance::from_ohms(123.0))
            .unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(
            sol.voltage(left).volts() - sol.voltage(right).volts(),
            0.0,
            1e-9,
        );
    }

    #[test]
    fn source_power_equals_dissipated_power() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(3.0))
            .unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(150.0)).unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(150.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(300.0))
            .unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(
            sol.source_power(&c).watts(),
            sol.dissipated_power(&c).watts(),
            1e-12,
        );
        // P = V²/Req, Req = 300 ∥ 300 = 150 → P = 9/150 = 60 mW
        assert_close(sol.source_power(&c).watts(), 0.06, 1e-9);
    }

    #[test]
    fn floating_source_uses_full_mna() {
        // Source floating between two nodes, each tied to ground by R.
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_voltage_source(a, b, Voltage::from_volts(2.0)).unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(sol.voltage(a).volts() - sol.voltage(b).volts(), 2.0, 1e-9);
        // Symmetry: va = +1, vb = −1.
        assert_close(sol.voltage(a).volts(), 1.0, 1e-9);
        assert_close(sol.voltage(b).volts(), -1.0, 1e-9);
    }

    #[test]
    fn cg_rejects_floating_sources() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
            .unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(1.0))
            .unwrap();
        c.add_voltage_source(a, b, Voltage::from_volts(1.0)).unwrap();
        let options = SolveOptions {
            method: Method::Cg,
            ..SolveOptions::default()
        };
        assert!(solve_dc(&c, &options).is_err());
    }

    #[test]
    fn conflicting_drivers_rejected() {
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(2.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
            .unwrap();
        assert!(matches!(
            solve_dc(&c, &SolveOptions::default()),
            Err(CircuitError::InvalidElement { .. })
        ));
    }

    #[test]
    fn nonlinear_memristor_draws_more_current() {
        // sinh model conducts more at bias than the linear state resistance.
        let build = |iv: IvModel| {
            let mut c = Circuit::new();
            let a = c.add_node();
            c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
                .unwrap();
            let m = c
                .add_memristor(a, Circuit::GROUND, Resistance::from_kilo_ohms(10.0), iv)
                .unwrap();
            (c, m)
        };
        let (lin_c, lin_m) = build(IvModel::Linear);
        let (non_c, non_m) = build(IvModel::Sinh { alpha: 2.0 });
        let lin_sol = solve_dc(&lin_c, &SolveOptions::default()).unwrap();
        let non_sol = solve_dc(&non_c, &SolveOptions::default()).unwrap();
        let i_lin = lin_sol.element_current(lin_m).amperes();
        let i_non = non_sol.element_current(non_m).amperes();
        assert!(i_non > i_lin, "{i_non} vs {i_lin}");
        // Analytic check: I = sinh(2·1)/(2·10k)
        assert_close(i_non, (2.0f64).sinh() / 2.0e4, 1e-9);
    }

    #[test]
    fn newton_converges_on_divider_with_memristor() {
        // Series resistor + nonlinear memristor: solve and verify KCL.
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        let r = c
            .add_resistor(top, mid, Resistance::from_kilo_ohms(5.0))
            .unwrap();
        let m = c
            .add_memristor(
                mid,
                Circuit::GROUND,
                Resistance::from_kilo_ohms(10.0),
                IvModel::Sinh { alpha: 3.0 },
            )
            .unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        let i_r = sol.element_current(r).amperes();
        let i_m = sol.element_current(m).amperes();
        assert_close(i_r, i_m, 1e-12);
        // The memristor's extra conduction pulls mid below the linear 2/3 V.
        assert!(sol.voltage(mid).volts() < 2.0 / 3.0);
        assert!(sol.voltage(mid).volts() > 0.0);
    }

    #[test]
    fn newton_iteration_budget() {
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_memristor(
            a,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(1.0),
            IvModel::Sinh { alpha: 2.0 },
        )
        .unwrap();
        let options = SolveOptions {
            newton_max_iterations: 0,
            ..SolveOptions::default()
        };
        assert!(matches!(
            solve_dc(&c, &options),
            Err(CircuitError::NewtonNoConvergence { .. })
        ));
    }

    #[test]
    fn superposition_on_linear_network() {
        // v(both sources) == v(source1) + v(source2) for a linear circuit.
        let build = |v1: f64, v2: f64| {
            let mut c = Circuit::new();
            let a = c.add_node();
            let b = c.add_node();
            let mid = c.add_node();
            c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(v1))
                .unwrap();
            c.add_voltage_source(b, Circuit::GROUND, Voltage::from_volts(v2))
                .unwrap();
            c.add_resistor(a, mid, Resistance::from_ohms(100.0)).unwrap();
            c.add_resistor(b, mid, Resistance::from_ohms(220.0)).unwrap();
            c.add_resistor(mid, Circuit::GROUND, Resistance::from_ohms(330.0))
                .unwrap();
            let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
            sol.voltage(mid).volts()
        };
        let both = build(1.0, 2.0);
        let only1 = build(1.0, 0.0);
        let only2 = build(0.0, 2.0);
        assert_close(both, only1 + only2, 1e-9);
    }
}
