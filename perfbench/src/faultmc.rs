//! `faultmc_campaign`: the `repro faultmc` campaign shape through
//! `Simulator::faults(..).run()` — MLP [128, 64], stuck-at rate 0.02,
//! 64 trials, default `FaultConfig` otherwise, on two threads. The seed
//! is the campaign seed.

use std::time::Instant;

use mnsim_core::config::Config;
use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::simulate::Report;
use mnsim_core::Simulator;
use mnsim_obs as obs;
use mnsim_obs::trace;
use mnsim_tech::fault::FaultRates;

use crate::layers::{self, TracedUnit};
use crate::output::Outcome;
use crate::stats::median;
use crate::RunArgs;

/// Threads of the measured campaign.
pub const THREADS: usize = 2;
/// Monte-Carlo trials per campaign (the `repro faultmc` default).
pub const TRIALS: usize = 64;
/// Stuck-at defect rate.
pub const RATE: f64 = 0.02;

/// The campaign's simulator at `threads` threads for campaign `seed`.
pub fn simulator(seed: u64, threads: usize) -> Simulator {
    let config = Config::fully_connected_mlp(&[128, 64]).expect("static dims");
    Simulator::new(config).threads(threads).faults(FaultConfig {
        rates: FaultRates::stuck_at(RATE),
        trials: TRIALS,
        seed,
        ..FaultConfig::default()
    })
}

/// Canonical text of a report: `Debug` prints every `f64` with
/// round-trip precision, so equal text means bit-identical numbers.
pub fn fingerprint(report: &Report) -> String {
    format!("{report:?}")
}

/// `true` when the campaign returned a report bit-identical to the
/// reference.
pub fn report_correct(report: Option<&Report>, reference: &str) -> bool {
    report.is_some_and(|r| r.faults.is_some() && fingerprint(r) == reference)
}

/// Runs the workload.
pub fn run(args: &RunArgs, setup_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    // The 1-thread reference the 2-thread reports must equal bit for bit.
    let (setup_s, reference) = crate::repeat_setup(
        setup_reps,
        || simulator(args.seed, 1).run().ok().as_ref().map(fingerprint),
        drop,
    );
    out.tally.record(reference.is_some());
    let reference = reference.unwrap_or_default();

    let sim = simulator(args.seed, THREADS);
    let (times, cost) = crate::timed_loop(
        args.seconds,
        THREADS,
        &mut out.tally,
        || sim.run().ok(),
        |report| report_correct(report.as_ref(), &reference),
    );
    out.set_timings(
        setup_s,
        &times,
        &times.wall_s,
        times.wall_s.len() as u64,
        &cost,
    );
    if args.trace {
        traced(&mut out, &sim, &reference, median(&times.wall_s));
    }
    out
}

/// One campaign under metrics + trace sessions.
fn traced(out: &mut Outcome, sim: &Simulator, reference: &str, untraced_s: f64) {
    let metrics = obs::session();
    let tracing = trace::session();
    let start = Instant::now();
    let report = sim.run().ok();
    let wall_s = start.elapsed().as_secs_f64();
    let trace = tracing.finish();
    let snapshot = metrics.snapshot();
    drop(metrics);
    out.tally.record(report_correct(report.as_ref(), reference));

    let unit = TracedUnit {
        wall_s,
        untraced_s,
        threads: THREADS as f64,
        untraced_circuit_s: 0.0,
    };
    layers::circuit(out, &snapshot, &unit);
    layers::fault_and_exec(out, &snapshot, &unit);
    layers::simulate_counts(out, &snapshot);
    layers::cache(out, &snapshot);
    layers::obs_and_residual(out, &trace, &unit);
    let fallback_rate = report
        .as_ref()
        .and_then(|r| r.faults.as_ref())
        .map_or(0.0, |f| f.fallback_rate());
    out.set("core.fault.fallback_rate", fallback_rate);
    out.set("error_rate", out.tally.error_rate());
}
