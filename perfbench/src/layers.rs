//! Per-layer metrics read from what the program already records: the
//! `mnsim-obs` metrics snapshot (counters, gauges, span histograms) and
//! the `obs::trace` event stream. Nothing here instruments the program.

use std::collections::BTreeMap;

use mnsim_obs::trace::{EventKind, Trace};
use mnsim_obs::MetricsSnapshot;

use crate::output::Outcome;
use crate::stats::ratio;

/// Wall-clock facts of one traced unit of work.
#[derive(Debug, Clone, Copy)]
pub struct TracedUnit {
    /// Wall time of the traced unit, seconds.
    pub wall_s: f64,
    /// Untraced median wall time of the same unit, seconds.
    pub untraced_s: f64,
    /// Threads the workload runs its work on (busy-share denominator).
    pub threads: f64,
    /// Bench-timed circuit work the trace cannot see (the transient
    /// solve of `table2_validate`), seconds.
    pub untraced_circuit_s: f64,
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name) as f64
}

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.gauges.get(name).copied().unwrap_or(0.0)
}

fn hist_sum(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map_or(0.0, |h| h.sum)
}

fn hist_p50(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map_or(0.0, |h| h.p50())
}

/// The `mnsim-circuit` layer: solver work counts, busy time and the
/// derived reuse ratios.
pub fn circuit(out: &mut Outcome, snapshot: &MetricsSnapshot, unit: &TracedUnit) {
    let solves = counter(snapshot, "circuit.solve.dc_solves");
    let analyses = counter(snapshot, "solver.klu.analyses");
    let factors = counter(snapshot, "solver.klu.factors");
    let busy = hist_sum(snapshot, "circuit.solve.dc");
    out.set("circuit.dc_solves", solves);
    out.set(
        "circuit.newton_iterations",
        counter(snapshot, "circuit.solve.newton_iterations"),
    );
    out.set("circuit.klu.analyses", analyses);
    out.set("circuit.klu.factors", factors);
    out.set(
        "circuit.klu.refactors",
        counter(snapshot, "solver.klu.refactor"),
    );
    out.set("circuit.klu.solves", counter(snapshot, "solver.klu.solves"));
    out.set("circuit.klu.lu_nnz", gauge(snapshot, "solver.klu.lu_nnz"));
    out.set(
        "circuit.batch.prepared_builds",
        counter(snapshot, "circuit.batch.prepared_builds"),
    );
    out.set(
        "circuit.batch.invalidations",
        counter(snapshot, "circuit.batch.invalidations"),
    );
    out.set(
        "circuit.recovery.fallbacks",
        counter(snapshot, "circuit.recovery.fallbacks"),
    );
    out.set("circuit.dc_busy_s", busy);
    out.set(
        "circuit.dc_solve_p50_ms",
        hist_p50(snapshot, "circuit.solve.dc") * 1e3,
    );
    out.set("circuit.transient_s", unit.untraced_circuit_s);
    // The separately timed circuit work can only have filled the traced
    // unit's time outside DC solves; the cap keeps timing noise between
    // the two measurements from pushing the share past 1.
    let untraced = unit.untraced_circuit_s.min((unit.wall_s - busy).max(0.0));
    out.set(
        "circuit.busy_share",
        ratio(busy + untraced, unit.wall_s * unit.threads),
    );
    out.set("circuit.factors_per_solve", ratio(factors, solves));
    out.set(
        "circuit.analysis_reuse",
        if factors > 0.0 {
            1.0 - analyses / factors
        } else {
            0.0
        },
    );
}

/// The `mnsim-core` fault-campaign and exec-pool layers.
/// `exec.parallelism` is the pool workers' summed busy time over the
/// traced unit's wall: the average number of busy workers.
pub fn fault_and_exec(out: &mut Outcome, snapshot: &MetricsSnapshot, unit: &TracedUnit) {
    out.set("core.fault.trials", counter(snapshot, "core.fault.trials"));
    out.set(
        "core.fault.trial_p50_ms",
        hist_p50(snapshot, "core.fault.trial") * 1e3,
    );
    out.set(
        "core.fault.retired_trials",
        counter(snapshot, "core.fault.retired_trials"),
    );
    let busy = hist_sum(snapshot, "exec.worker.busy");
    let idle = hist_sum(snapshot, "exec.worker.idle");
    out.set("exec.parallelism", ratio(busy, unit.wall_s));
    out.set(
        "exec.chunk_imbalance",
        gauge(snapshot, "exec.chunk_imbalance"),
    );
    out.set("exec.idle_share", ratio(idle, busy + idle));
}

/// Behaviour-level simulate and DSE work counts.
pub fn simulate_counts(out: &mut Outcome, snapshot: &MetricsSnapshot) {
    out.set(
        "core.simulate.runs",
        counter(snapshot, "core.simulate.runs"),
    );
    out.set("core.dse.points", counter(snapshot, "core.dse.points"));
}

/// The artifact cache, from the `cache.artifact.*` metrics.
pub fn cache(out: &mut Outcome, snapshot: &MetricsSnapshot) {
    let hits = counter(snapshot, "cache.artifact.hits");
    let misses = counter(snapshot, "cache.artifact.misses");
    out.set("cache.hits", hits);
    out.set("cache.misses", misses);
    out.set("cache.inserts", counter(snapshot, "cache.artifact.inserts"));
    out.set(
        "cache.evictions",
        counter(snapshot, "cache.artifact.evictions"),
    );
    out.set("cache.hit_ratio", ratio(hits, hits + misses));
    out.set("cache.bytes", gauge(snapshot, "cache.artifact.bytes"));
}

/// The tracing layer and the residual: overhead of the traced unit over
/// the untraced median, dropped events, and the wall time no span (and
/// no bench-timed layer call) covers.
pub fn obs_and_residual(out: &mut Outcome, trace: &Trace, unit: &TracedUnit) {
    out.set("trace_wall_s", unit.wall_s);
    out.set("obs.trace_overhead", unit.wall_s - unit.untraced_s);
    out.set("obs.trace_dropped", trace.dropped as f64);
    out.set(
        "unattributed_s",
        (unit.wall_s - span_union_s(trace) - unit.untraced_circuit_s).max(0.0),
    );
}

/// Wall time during which at least one span of `trace` was open, on any
/// lane, seconds. A span still open at the end closes at the last event.
pub fn span_union_s(trace: &Trace) -> f64 {
    let last = trace.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    let mut open: BTreeMap<u64, u64> = BTreeMap::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for event in &trace.events {
        match event.kind {
            EventKind::Begin => {
                open.insert(event.id, event.t_ns);
            }
            EventKind::End => {
                if let Some(start) = open.remove(&event.id) {
                    spans.push((start, event.t_ns));
                }
            }
            _ => {}
        }
    }
    spans.extend(open.into_values().map(|start| (start, last)));
    spans.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in spans {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    (total + current.map_or(0, |(s, e)| e - s)) as f64 * 1e-9
}
