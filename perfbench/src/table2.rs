//! `table2_validate`: the paper's Table II model-vs-circuit validation
//! (MLP 128-128-128, 90 nm, default Sinh cells), one weight matrix × two
//! inputs, serial. The seed is the validation seed; 20160318 is the
//! pinned golden sample.

use std::time::Instant;

use mnsim_core::config::Config;
use mnsim_core::exec::ExecOptions;
use mnsim_core::validate::{
    measure_transient_settle, validate_against_circuit_with, ValidationRow,
};
use mnsim_nn::models;
use mnsim_obs as obs;
use mnsim_obs::trace;
use mnsim_tech::cmos::CmosNode;

use crate::layers::{self, TracedUnit};
use crate::output::Outcome;
use crate::stats::median;
use crate::RunArgs;

/// The golden sample's seed.
pub const GOLDEN_SEED: u64 = 20160318;
/// Weight matrices × input vectors of the pinned sample.
pub const SAMPLES: (usize, usize) = (1, 2);
/// Relative tolerance of every golden comparison (absolute near zero).
pub const REL_TOL: f64 = 1e-6;

/// Golden `(metric, mnsim, circuit, circuit depends on the seed)` rows of
/// the pinned sample, copied from the Table II regression suite.
pub const GOLDEN: [(&str, f64, f64, bool); 5] = [
    (
        "computation power (avg-case assumption)",
        109.472727310,
        87.450647333,
        false,
    ),
    (
        "computation power (random weights)",
        109.472727310,
        69.325457579,
        true,
    ),
    ("read power (single cell)", 0.250250000, 0.247107885, false),
    ("crossbar settle latency", 0.006225390, 0.005851867, false),
    ("average relative accuracy", 9.443112333, 12.395246667, true),
];

/// Golden `(mnsim, circuit)` accuracy row of the same setup at crossbar
/// size 16 with the golden seed: the set-up pre-flight.
pub const GOLDEN_SIZE16_ACCURACY: (f64, f64) = (86.870393534, 89.790156586);

/// The Table II configuration.
pub fn config() -> Config {
    let mut config = Config::for_network(models::mlp(&[128, 128, 128]).expect("static dims"));
    config.cmos = CmosNode::N90;
    config.crossbar_size = 128;
    config
}

fn close(actual: f64, golden: f64) -> bool {
    (actual - golden).abs() <= REL_TOL * golden.abs().max(1e-3)
}

/// Checks validation rows against the goldens: every seed-independent
/// value always, the seed-dependent circuit values only at the golden
/// seed (elsewhere they must be finite and positive).
pub fn rows_correct(seed: u64, rows: &[ValidationRow]) -> bool {
    rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(&GOLDEN)
            .all(|(row, &(metric, mnsim, circuit, seeded))| {
                let circuit_ok = if seeded && seed != GOLDEN_SEED {
                    row.circuit.is_finite() && row.circuit > 0.0
                } else {
                    close(row.circuit, circuit)
                };
                row.metric == metric && close(row.mnsim, mnsim) && circuit_ok
            })
}

fn validate(config: &Config, seed: u64) -> Option<Vec<ValidationRow>> {
    let (matrices, inputs) = SAMPLES;
    validate_against_circuit_with(config, matrices, inputs, seed, &ExecOptions::serial()).ok()
}

/// Set-up: the configuration, checked, plus a warm-up pre-flight that
/// validates the 16×16 variant at the golden seed against its golden
/// accuracy row. Returns the configuration and whether the pre-flight
/// matched.
pub fn setup() -> (Config, bool) {
    let config = config();
    let mut small = config.clone();
    small.crossbar_size = 16;
    let preflight = config.validate().is_ok()
        && validate(&small, GOLDEN_SEED).is_some_and(|rows| {
            rows.iter().any(|row| {
                row.metric == "average relative accuracy"
                    && close(row.mnsim, GOLDEN_SIZE16_ACCURACY.0)
                    && close(row.circuit, GOLDEN_SIZE16_ACCURACY.1)
            })
        });
    (config, preflight)
}

/// Runs the workload.
pub fn run(args: &RunArgs, setup_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (config, preflight)) = crate::repeat_setup(setup_reps, setup, drop);
    out.tally.record(preflight);

    let mut first: Option<Vec<ValidationRow>> = None;
    let (times, cost) = crate::timed_loop(
        args.seconds,
        1,
        &mut out.tally,
        || validate(&config, args.seed),
        |rows| check(args.seed, rows, &mut first),
    );
    out.set_timings(
        setup_s,
        &times,
        &times.wall_s,
        times.wall_s.len() as u64,
        &cost,
    );
    if args.trace {
        traced(
            &mut out,
            &config,
            args.seed,
            median(&times.wall_s),
            &mut first,
        );
    }
    out
}

/// One call's correctness: golden rows, and bit-identical to the run's
/// first call.
fn check(
    seed: u64,
    rows: Option<Vec<ValidationRow>>,
    first: &mut Option<Vec<ValidationRow>>,
) -> bool {
    let Some(rows) = rows else { return false };
    let ok = rows_correct(seed, &rows) && first.as_ref().is_none_or(|f| *f == rows);
    first.get_or_insert(rows);
    ok
}

/// The traced call: metrics + trace sessions around one validation, then
/// the transient settle (which no span covers) bench-timed on its own.
fn traced(
    out: &mut Outcome,
    config: &Config,
    seed: u64,
    untraced_s: f64,
    first: &mut Option<Vec<ValidationRow>>,
) {
    let metrics = obs::session();
    let tracing = trace::session();
    let start = Instant::now();
    let rows = validate(config, seed);
    let wall_s = start.elapsed().as_secs_f64();
    let trace = tracing.finish();
    let snapshot = metrics.snapshot();
    drop(metrics);
    out.tally.record(check(seed, rows, first));

    let start = Instant::now();
    let settled = measure_transient_settle(config, config.crossbar_size.min(32)).is_ok();
    let transient_s = start.elapsed().as_secs_f64();
    out.tally.record(settled);

    let unit = TracedUnit {
        wall_s,
        untraced_s,
        threads: 1.0,
        untraced_circuit_s: transient_s,
    };
    layers::circuit(out, &snapshot, &unit);
    layers::simulate_counts(out, &snapshot);
    layers::cache(out, &snapshot);
    layers::fault_and_exec(out, &snapshot, &unit);
    layers::obs_and_residual(out, &trace, &unit);
    out.set("core.validate_s", wall_s);
    out.set(
        "core.validate_other_s",
        wall_s - out.get("circuit.dc_busy_s"),
    );
    out.set("error_rate", out.tally.error_rate());
}
