//! The run result: the `{"env":…}` line, a human-readable metric table on
//! stderr, and the final one-line JSON result object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::env;
use crate::spec::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, ratio, Tally};
use crate::OpTimes;

/// Wall and process CPU time (every thread, user + system) of timed
/// work, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopCost {
    /// Wall time.
    pub wall_s: f64,
    /// Process CPU time.
    pub cpu_s: f64,
}

impl LoopCost {
    /// Measures `f`.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, LoopCost) {
        let cpu = env::process_cpu_s();
        let start = std::time::Instant::now();
        let out = f();
        let cost = LoopCost {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: env::process_cpu_s() - cpu,
        };
        (out, cost)
    }

    /// Adds another stretch of timed work.
    pub fn add(&mut self, other: LoopCost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed (wrong outputs included).
    pub tally: Tally,
    /// Metric values by name (end-to-end, and per-layer in traced runs).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets one metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The timings of a run from its median raw set-up time, its rounds
    /// and the `ops` operations' summed cost. A round is one operation,
    /// or for `serve_mix` a fixed slice of time: `rounds` holds each
    /// round's typical operation time and its process CPU per operation.
    /// The gated metrics are 10th percentiles over the rounds, so they
    /// describe the run's quieter stretches, scaled by the probed host
    /// speed (see `probe`); set-up time is scaled by the same factor.
    /// `op_times_s` holds each operation's time, or a uniform sample.
    pub fn set_timings(
        &mut self,
        setup_raw_s: f64,
        rounds: &OpTimes,
        op_times_s: &[f64],
        ops: u64,
        cost: &LoopCost,
    ) {
        let speed = rounds.probes.speed();
        let op_p10_s = quantile(&rounds.wall_s, 0.1);
        let ops = ops as f64;
        self.set("setup_s", setup_raw_s * speed);
        self.set("op_ref_ms", op_p10_s * speed * 1e3);
        self.set("cpu_ref_ms", quantile(&rounds.cpu_s, 0.1) * speed * 1e3);
        self.set("host_speed", speed);
        self.set("setup_raw_s", setup_raw_s);
        self.set("op_p10_ms", op_p10_s * 1e3);
        self.set("op_p50_ms", median(op_times_s) * 1e3);
        self.set("op_cpu_ms", ratio(cost.cpu_s * 1e3, ops));
        self.set("op_p99_ms", quantile(op_times_s, 0.99) * 1e3);
        self.set("ops_per_s", ratio(ops, cost.wall_s));
        self.set("op_samples", ops);
    }

    /// Value of a metric set earlier (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Sets every metric of the printed catalogue that was not measured
    /// to 0.
    pub fn fill_unmeasured(&mut self, trace: bool) {
        for (name, _) in printed_catalogue(trace) {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// `true` when every operation succeeded with a correct output.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

/// The catalogue a run prints: end-to-end metrics untraced, per-layer
/// metrics traced.
pub fn printed_catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the printed catalogue.
///
/// # Panics
///
/// Panics when the outcome lacks a catalogue metric — a benchmark bug,
/// never a program failure.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, (name, unit)) in printed_catalogue(trace).iter().enumerate() {
        let value = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was never measured"));
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// The `{"env":{…}}` line printed before the result.
pub fn env_line(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let mut out = String::from("{\"env\":{");
    for (key, value) in env::environment() {
        let _ = write!(out, "\"{key}\":\"{}\",", value.replace(['"', '\\'], "'"));
    }
    let _ = write!(
        out,
        "\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{},\"trace\":{}}}}}",
        json_number(seconds),
        u8::from(trace)
    );
    out
}

/// Every measured metric with its unit, one per line (stderr table).
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>18} {:<6}   (attempted {}, failed {}, error_rate {})",
        "metric",
        "value",
        "unit",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.error_rate()
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(value) = outcome.metrics.get(name) {
            let _ = writeln!(out, "{name:<32} {value:>18.6} {unit:<6}");
        }
    }
    out
}

/// A JSON number with every significant digit (`0` for non-finite).
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:?}")
    }
}
