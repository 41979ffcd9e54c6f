//! The repository benchmark: three seeded workloads users actually run,
//! timed end to end from outside the program and split by layer from the
//! counters, histograms and trace the program already records.
//!
//! * `table2_validate` — the paper's Table II model-vs-circuit validation
//!   (solver-bound, serial).
//! * `faultmc_campaign` — the `repro faultmc` stuck-at Monte-Carlo
//!   campaign on two threads (many small solves, exec-pool fan-out).
//! * `serve_mix` — an in-process session server under two closed-loop
//!   clients (protocol, queue, cache and behaviour-level simulate; no
//!   solver).
//!
//! See `README.md` next to this crate for the metric definitions and the
//! layer → end-to-end predictions.

pub mod compare;
pub mod env;
pub mod faultmc;
pub mod layers;
pub mod output;
pub mod probe;
pub mod rng;
pub mod serve_mix;
pub mod spec;
pub mod stats;
pub mod table2;

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed (untraced) loop, seconds.
    pub seconds: f64,
    /// `true` for the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// Runs `setup` `reps` times (at least once). Each product but the last
/// goes to `discard` before the next set-up starts, outside the timing.
/// Returns the median set-up time and the last product.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = std::time::Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&times), kept.expect("at least one set-up"))
}

/// Per-round samples of a timed loop, seconds, and the host-speed probes
/// run between the rounds.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    /// Each round's operation time.
    pub wall_s: Vec<f64>,
    /// Each round's process CPU time (every thread) per operation.
    pub cpu_s: Vec<f64>,
    /// Probes run after each round, for `probe::SHARE` of its time.
    pub probes: probe::Probes,
}

/// Runs `op` back to back until `seconds` have passed (at least once),
/// timing only `op` and recording whether `check` accepts each output.
/// Each operation is a round, followed by its share of probes on
/// `threads` threads, the operation's own parallelism. Returns the rounds
/// and the operations' summed cost.
pub fn timed_loop<T>(
    seconds: f64,
    threads: usize,
    tally: &mut stats::Tally,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T) -> bool,
) -> (OpTimes, output::LoopCost) {
    let mut times = OpTimes::default();
    let mut cost = output::LoopCost::default();
    let loop_start = std::time::Instant::now();
    while times.wall_s.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let (output, op_cost) = output::LoopCost::measure(&mut op);
        times.wall_s.push(op_cost.wall_s);
        times.cpu_s.push(op_cost.cpu_s);
        cost.add(op_cost);
        tally.record(check(output));
        times.probes.run_for(probe::SHARE * op_cost.wall_s, threads);
    }
    (times, cost)
}
