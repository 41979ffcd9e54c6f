//! `perfbench compare <a> <b>`: compares two saved run outputs metric by
//! metric, flags end-to-end metrics that got worse by more than their
//! `BENCHMARK.json` bound, and warns when the outputs come from
//! different machines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mnsim_obs::{parse_json, JsonValue};

use crate::env::MACHINE_KEYS;

/// One saved run: its environment and its metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutput {
    /// `env` line fields.
    pub env: BTreeMap<String, String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses a run's captured stdout: the `{"env":…}` line and the final
/// result line.
pub fn parse_output(text: &str) -> Result<RunOutput, String> {
    let mut run = RunOutput::default();
    for line in text.lines().filter(|l| l.starts_with("{\"env\":")) {
        let value = parse_json(line).map_err(|e| format!("bad env line: {e}"))?;
        for (key, v) in value
            .get("env")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            let text = v.as_str().map_or_else(|| format!("{v:?}"), str::to_string);
            run.env.insert(key.clone(), text);
        }
    }
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let value = parse_json(last).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = value
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result line has no metrics")?;
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or("metric without value")?;
        let unit = m
            .get("unit")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        run.metrics.insert(name.clone(), (v, unit));
    }
    Ok(run)
}

/// Machine keys whose values differ between `a` and `b`.
pub fn machine_differences(a: &RunOutput, b: &RunOutput) -> Vec<String> {
    MACHINE_KEYS
        .iter()
        .filter(|key| a.env.get(**key) != b.env.get(**key))
        .map(|key| {
            let show = |r: &RunOutput| r.env.get(*key).cloned().unwrap_or_else(|| "?".into());
            format!("{key}: {} vs {}", show(a), show(b))
        })
        .collect()
}

/// `(better, bound)` of every end-to-end metric in `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> BTreeMap<String, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(value) = parse_json(benchmark_json) else {
        return out;
    };
    for metric in value
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let name = metric.get("name").and_then(JsonValue::as_str);
        let better = metric.get("better").and_then(JsonValue::as_str);
        let bound = metric.get("bound").and_then(JsonValue::as_f64);
        if let (Some(name), Some(better), Some(bound)) = (name, better, bound) {
            out.insert(name.to_string(), (better.to_string(), bound));
        }
    }
    out
}

/// The comparison report and whether any bounded metric regressed.
pub fn compare(
    a: &RunOutput,
    b: &RunOutput,
    bounds: &BTreeMap<String, (String, f64)>,
) -> (String, bool) {
    let mut report = String::new();
    for difference in machine_differences(a, b) {
        let _ = writeln!(
            report,
            "warning: outputs come from different machines ({difference})"
        );
    }
    if a.env.get("workload") != b.env.get("workload") {
        let _ = writeln!(report, "warning: outputs come from different workloads");
    }
    let mut regressed = false;
    let _ = writeln!(
        report,
        "{:<32} {:<6} {:>16} {:>16} {:>9}",
        "metric", "unit", "a", "b", "change"
    );
    for (name, (va, unit)) in &a.metrics {
        let Some((vb, _)) = b.metrics.get(name) else {
            continue;
        };
        let change = if *va == 0.0 { 0.0 } else { (vb - va) / va };
        let mut verdict = String::new();
        if let Some((better, bound)) = bounds.get(name) {
            let worse = if better == "lower" { change } else { -change };
            if worse > *bound {
                regressed = true;
                verdict = format!("  WORSE (bound {:.0}%)", bound * 100.0);
            }
        }
        let _ = writeln!(
            report,
            "{name:<32} {unit:<6} {va:>16.6} {vb:>16.6} {:>+8.1}%{verdict}",
            change * 100.0
        );
    }
    (report, regressed)
}
