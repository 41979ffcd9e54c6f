//! Integration lockdown for the sparse LDLᵀ engine
//! ([`mnsim::circuit::ldl`]): the sparse path must agree with dense LU to
//! near machine precision (fault overlays included), the cached symbolic
//! analysis must satisfy its structural invariants, value-only
//! refactorization must be bit-identical to a fresh factorization,
//! singular systems must surface as typed errors (never NaN or a hang) on
//! both the simplicial and the supernodal numeric path, and fault campaigns
//! must actually hit the refactor fast path per trial.
//!
//! Every test holds the [`obs::session`] lock while it solves, so the exact
//! counter assertions cannot include another test's factorizations.

use mnsim::circuit::crossbar::CrossbarSpec;
use mnsim::circuit::solve::{solve_dc, Method, SolveOptions};
use mnsim::circuit::sparse::TripletMatrix;
use mnsim::circuit::CircuitError;
use mnsim::circuit::{analyze, solve_robust, RobustOptions, SparseLdl};
use mnsim::core::config::Config;
use mnsim::core::exec::ExecOptions;
use mnsim::core::fault_sim::{simulate_with_faults_with, FaultConfig};
use mnsim::obs;
use mnsim::obs::trace::{self, EventKind};
use mnsim::tech::fault::{FaultMap, FaultRates};
use mnsim::tech::memristor::IvModel;
use mnsim::tech::units::{Resistance, Voltage};
use proptest::prelude::*;

/// Deterministic xorshift uniform in `[0, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A crossbar whose cell states are drawn from `[5 kΩ, 20 kΩ)` — every
/// cell different, so the reduced system has no accidental symmetry.
fn random_crossbar(rows: usize, cols: usize, seed: u64) -> CrossbarSpec {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut spec = CrossbarSpec::uniform(
        rows,
        cols,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    for cell in &mut spec.states {
        *cell = Resistance::from_ohms(5_000.0 + 15_000.0 * uniform(&mut state));
    }
    for input in &mut spec.inputs {
        *input = Voltage::from_volts(0.2 + 0.8 * uniform(&mut state));
    }
    spec
}

/// A random symmetric diagonally dominant sparse matrix in CSC form —
/// the shape every reduced crossbar nodal system has.
fn random_sdd_csc(n: usize, seed: u64) -> mnsim::circuit::sparse::CscMatrix {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut diag = vec![1e-3f64; n]; // ground leak keeps every pivot alive
    let mut triplets = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if uniform(&mut state) < 3.0 / n as f64 {
                let g = 1e-4 + uniform(&mut state) * 1e-3;
                triplets.add(i, j, -g);
                triplets.add(j, i, -g);
                diag[i] += g;
                diag[j] += g;
            }
        }
    }
    for (i, &d) in diag.iter().enumerate() {
        triplets.add(i, i, d);
    }
    triplets.to_csc()
}

/// [`random_crossbar`] with a seeded defect overlay: stuck and drifted
/// cells plus broken word lines, which the builder models as 1 TΩ
/// segments — twelve decades below the wire conductances.
///
/// Bit lines stay whole so that every node keeps a path of ordinary
/// conductances to ground through its column's sense resistor. Breaking
/// bit lines as well can cut off a subnetwork whose voltages are then set
/// only by 1 TΩ leakage; those voltages are determined to about 1e-6 V by
/// any backward-stable solver (dense LU and sparse LDLᵀ both leave KCL
/// residuals near 1e-17 A there), so a 1e-10 agreement test is not
/// meaningful for them.
fn random_faulty_crossbar(rows: usize, cols: usize, seed: u64) -> CrossbarSpec {
    let rates = FaultRates {
        stuck_at_hrs: 0.1,
        stuck_at_lrs: 0.1,
        drifted: 0.1,
        drift_decades: 1.0,
        broken_wordline: 0.3,
        broken_bitline: 0.0,
    };
    let map = FaultMap::generate(rows, cols, &rates, seed).expect("valid rates");
    random_crossbar(rows, cols, seed).with_faults(
        map,
        Resistance::from_mega_ohms(1.0),
        Resistance::from_ohms(500.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse LDLᵀ and dense LU agree within 1e-10 relative on random
    /// crossbar structures up to 96 unknowns (`2·rows·cols`), clean and
    /// with fault overlays.
    #[test]
    fn sparse_direct_matches_dense_lu_within_1e10(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
        faulty in 0u8..2,
    ) {
        let _session = obs::session();
        let spec = if faulty == 1 {
            random_faulty_crossbar(rows, cols, seed)
        } else {
            random_crossbar(rows, cols, seed)
        };
        let built = spec.build().expect("valid crossbar");
        let solve_with = |method: Method| {
            let options = SolveOptions { method, ..SolveOptions::default() };
            solve_dc(built.circuit(), &options).expect("SPD system solves")
        };
        let sparse = solve_with(Method::SparseLu);
        let dense = solve_with(Method::DenseLu);
        for (node, (&vs, &vd)) in sparse.voltages().iter().zip(dense.voltages()).enumerate() {
            let scale = vs.abs().max(vd.abs()).max(1.0);
            prop_assert!(
                (vs - vd).abs() <= 1e-10 * scale,
                "{rows}x{cols} seed {seed} faulty {faulty} node {node}: sparse {vs} vs dense {vd}"
            );
        }
    }

    /// Structural invariants of the cached symbolic analysis: the ordering
    /// is a permutation, every elimination-tree parent lies above its
    /// child, and the numeric factorization reproduces `A` (checked
    /// through `A·(LDLᵀ)⁻¹·b = b` on a known solution).
    #[test]
    fn symbolic_analysis_invariants_hold(
        n in 2usize..48,
        seed in 0u64..1_000_000,
    ) {
        let _session = obs::session();
        let a = random_sdd_csc(n, seed);
        let analysis = analyze(&a);
        prop_assert_eq!(analysis.n(), n);
        prop_assert!(analysis.compatible_with(&a));

        let mut seen = vec![false; n];
        for &p in analysis.perm() {
            prop_assert!(p < n, "index {p} out of range");
            prop_assert!(!seen[p], "index {p} repeated");
            seen[p] = true;
        }
        for j in 0..n {
            if let Some(parent) = analysis.parent(j) {
                prop_assert!(parent > j && parent < n, "parent {parent} of {j}");
            }
        }

        // L·D·Lᵀ reproduces A within tolerance: solving against b = A·x_true
        // must recover x_true.
        let ldl = SparseLdl::factor(&a).expect("SPD matrix factorizes");
        prop_assert_eq!(ldl.nnz(), analysis.l_nnz() + n);
        let mut state = seed | 1;
        let x_true: Vec<f64> = (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect();
        let b = a.mul_vec(&x_true);
        let x = ldl.solve(&b);
        for (i, (&xt, &xs)) in x_true.iter().zip(&x).enumerate() {
            let scale = xt.abs().max(xs.abs()).max(1.0);
            prop_assert!(
                (xt - xs).abs() <= 1e-8 * scale,
                "n {n} seed {seed} unknown {i}: {xt} vs {xs}"
            );
        }
    }

    /// `refactor` with unchanged values — and with changed values on the
    /// same pattern — produces solves bit-identical to a from-scratch
    /// factorization: both run the one numeric pass on the same ordering.
    #[test]
    fn refactor_is_bit_identical_to_fresh_factorization(
        n in 2usize..40,
        seed in 0u64..1_000_000,
    ) {
        let _session = obs::session();
        let a = random_sdd_csc(n, seed);
        // Same pattern, scaled values: what a fault overlay or reprogram
        // does to the reduced system.
        let scaled = {
            let mut t = TripletMatrix::new(n, n);
            for col in 0..n {
                for k in a.col_ptr()[col]..a.col_ptr()[col + 1] {
                    t.add(a.row_idx()[k], col, a.values()[k] * 1.75);
                }
            }
            t.to_csc()
        };
        let mut state = seed.wrapping_add(17) | 1;
        let b: Vec<f64> = (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect();

        let mut ldl = SparseLdl::factor(&a).expect("factors");
        // Unchanged values: the refactor must change nothing.
        ldl.refactor(&a).expect("same values refactor");
        let fresh = SparseLdl::factor(&a).expect("factors");
        prop_assert_eq!(ldl.solve(&b), fresh.solve(&b), "unchanged-value refactor drifted");

        // Changed values, same pattern: still bit-identical to factoring
        // the new matrix from scratch.
        ldl.refactor(&scaled).expect("scaled values refactor");
        let fresh_scaled = SparseLdl::factor(&scaled).expect("factors");
        prop_assert_eq!(ldl.solve(&b), fresh_scaled.solve(&b), "refactored solve drifted");
    }
}

/// A genuinely singular system must come back as the typed
/// [`CircuitError::SingularSystem`] — not NaN voltages and not a hang.
/// The crossbar builder itself models broken lines as 1 TΩ segments
/// precisely to avoid creating one, so the degenerate circuit (a floating
/// node with no DC path anywhere) is built directly here.
#[test]
fn floating_node_is_a_typed_singular_error() {
    let built = random_crossbar(3, 3, 42).build().unwrap();
    let mut circuit = built.circuit().clone();
    circuit.add_node(); // no element ever touches it: zero diagonal row

    // The sparse-direct path reports the singularity as the zero pivot of
    // the node's empty row.
    let sparse = SolveOptions {
        method: Method::SparseLu,
        ..SolveOptions::default()
    };
    let session = obs::session();
    match solve_dc(&circuit, &sparse) {
        Err(CircuitError::SingularSystem { .. }) => {}
        other => panic!("expected SingularSystem, got {other:?}"),
    }
    drop(session);

    // The recovery ladder tries every rung, records the sparse rung's
    // early escalation (SingularPivot guard), and returns the typed error
    // once the ladder is exhausted.
    let session = obs::session();
    let result = solve_robust(&circuit, &RobustOptions::default());
    let snap = session.snapshot();
    match result {
        Err(CircuitError::SingularSystem { .. }) => {}
        other => panic!("expected SingularSystem from the ladder, got {other:?}"),
    }
    assert_eq!(snap.counter("circuit.recovery.attempts.sparse_lu"), 1);
    assert_eq!(snap.counter("circuit.recovery.accepted.sparse_lu"), 0);
    // Every rung fails on the singular-pivot (or zero-diagonal) guard:
    // four early escalations, none of them burning an iteration budget.
    assert_eq!(snap.counter("solver.early_escalations"), 4);
    assert_eq!(snap.counter("circuit.recovery.exhausted"), 1);
}

/// The same floating node inside a 64×64 crossbar, whose 8 192-unknown
/// reduced system takes the supernodal numeric path: the isolated node is
/// a one-column supernode whose pivot is exactly zero.
#[test]
fn floating_node_on_the_supernodal_path_is_a_typed_singular_error() {
    let built = random_crossbar(64, 64, 11).build().unwrap();
    let mut circuit = built.circuit().clone();
    circuit.add_node();

    let sparse = SolveOptions {
        method: Method::SparseLu,
        ..SolveOptions::default()
    };
    let session = obs::session();
    match solve_dc(&circuit, &sparse) {
        Err(CircuitError::SingularSystem { .. }) => {}
        other => panic!("expected SingularSystem, got {other:?}"),
    }
    let snap = session.snapshot();
    assert_eq!(snap.counter("solver.klu.supernodal"), 1);
    assert_eq!(snap.counter("solver.klu.factors"), 0);
}

/// An island of two nodes joined by a resistor, touching nothing driven:
/// every row has a positive diagonal, but the island's Laplacian block is
/// singular, so the second pivot of the island is exactly zero.
#[test]
fn resistor_island_is_a_typed_singular_error() {
    let built = random_crossbar(3, 3, 7).build().unwrap();
    let mut circuit = built.circuit().clone();
    let a = circuit.add_node();
    let b = circuit.add_node();
    circuit
        .add_resistor(a, b, Resistance::from_kilo_ohms(1.0))
        .unwrap();

    let sparse = SolveOptions {
        method: Method::SparseLu,
        ..SolveOptions::default()
    };
    let _session = obs::session();
    match solve_dc(&circuit, &sparse) {
        Err(CircuitError::SingularSystem { .. }) => {}
        other => panic!("expected SingularSystem, got {other:?}"),
    }
}

/// The solver phases show in a trace: one ordering and one symbolic pass
/// per analysis, and one assembly, numeric factorization and back-solve
/// per Newton step. The 128-unknown mesh stays on the simplicial path; a
/// 64×64 crossbar's numeric pass is supernodal and counted as such.
#[test]
fn solver_phases_are_traced() {
    let mut spec = random_crossbar(8, 8, 3);
    spec.iv = IvModel::Sinh { alpha: 2.0 };
    let built = spec.build().unwrap();

    let session = obs::session();
    let tracing = trace::session();
    solve_dc(built.circuit(), &SolveOptions::default()).unwrap();
    let collected = tracing.finish();
    let snap = session.snapshot();
    let begins = |name: &str| {
        collected
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == name)
            .count() as u64
    };
    let steps = 1 + snap.counter("circuit.solve.newton_iterations");
    assert!(steps >= 2, "the sinh solve must take Newton steps");
    assert_eq!(begins("solver.order"), 1);
    assert_eq!(begins("solver.symbolic"), 1);
    assert_eq!(begins("circuit.assemble"), steps);
    assert_eq!(begins("solver.factor"), steps);
    assert_eq!(begins("solver.solve"), steps);
    assert_eq!(snap.counter("solver.klu.supernodal"), 0);
    drop(session);

    let large = random_crossbar(64, 64, 5).build().unwrap();
    let session = obs::session();
    let tracing = trace::session();
    solve_dc(large.circuit(), &SolveOptions::default()).unwrap();
    let collected = tracing.finish();
    let snap = session.snapshot();
    let begins = |name: &str| {
        collected
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == name)
            .count()
    };
    assert_eq!(begins("solver.order"), 1);
    assert_eq!(begins("solver.symbolic"), 1);
    assert_eq!(begins("solver.factor"), 1);
    assert_eq!(snap.counter("solver.klu.supernodal"), 1);
    assert_eq!(snap.counter("solver.klu.factors"), 1);
}

/// Acceptance: per-trial value-only updates in a fault campaign hit the
/// `refactor()` fast path — visible as `solver.klu.refactor` increments —
/// instead of rebuilding the prepared system from scratch every trial.
#[test]
fn fault_campaign_hits_the_refactor_fast_path() {
    let session = obs::session();
    let mut config = Config::fully_connected_mlp(&[8, 8]).unwrap();
    config.crossbar_size = 8;
    // Ohmic cells keep the trial circuits linear so the sparse engine —
    // not the Newton loop — owns the per-trial solves.
    config.device.iv = IvModel::Linear;
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.05),
        trials: 6,
        inputs_per_trial: 2,
        // No spare-row repair: defects must survive into the operated
        // circuit, otherwise every trial is fingerprint-identical to the
        // clean array and reuses the cache exactly instead of refreshing.
        spare_rows: 0,
        ..FaultConfig::default()
    };
    simulate_with_faults_with(&config, &fault_config, &ExecOptions::serial()).unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("core.fault.trials"), 6);
    // The first trial factors cold; each later trial's fault map is a
    // value-only change on the same structure, so all five must refresh
    // the cached factorization in place (the second read of each trial is
    // an exact cache hit and solves without touching the numeric factor).
    assert_eq!(
        snap.counter("solver.klu.refactor"),
        5,
        "trials after the first must hit the refactor fast path",
    );
    assert_eq!(
        snap.counter("circuit.batch.value_refreshes"),
        5,
        "prepare_or_reuse must refresh in place once per changed trial",
    );
    // And refreshing is strictly cheaper than re-analyzing: symbolic
    // analyses stay well below one per trial solve.
    assert!(snap.counter("solver.klu.analyses") < snap.counter("solver.klu.solves"));
}
