//! The metric catalogue. `BENCHMARK.json` lists the same names and units;
//! the test suite keeps the two in step.

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table2_validate", "faultmc_campaign", "serve_mix"];

/// End-to-end metrics `(name, unit)`, printed by every `--trace 0` run.
///
/// `op_*` measure one operation of the workload: a validation call
/// (`table2_validate`), a 64-trial campaign (`faultmc_campaign`) or one
/// client-observed request (`serve_mix`). The gated times are scaled to
/// the reference host speed (see `probe`); the raw times, whole-loop
/// median, mean CPU, tail and throughput are per-layer metrics: on a
/// shared host they move with the host's load by more than any bound
/// allows (see `README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ref_ms", "ms"),
    ("cpu_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every `--trace 1` run.
/// A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    // mnsim-circuit
    ("circuit.dc_solves", "count"),
    ("circuit.newton_iterations", "count"),
    ("circuit.klu.analyses", "count"),
    ("circuit.klu.factors", "count"),
    ("circuit.klu.refactors", "count"),
    ("circuit.klu.solves", "count"),
    ("circuit.klu.lu_nnz", "count"),
    ("circuit.batch.prepared_builds", "count"),
    ("circuit.batch.invalidations", "count"),
    ("circuit.recovery.fallbacks", "count"),
    ("circuit.dc_busy_s", "s"),
    ("circuit.dc_solve_p50_ms", "ms"),
    ("circuit.transient_s", "s"),
    ("circuit.busy_share", "ratio"),
    ("circuit.factors_per_solve", "ratio"),
    ("circuit.analysis_reuse", "ratio"),
    // mnsim-core validate
    ("core.validate_s", "s"),
    ("core.validate_other_s", "s"),
    // mnsim-core fault_sim + exec
    ("core.fault.trials", "count"),
    ("core.fault.trial_p50_ms", "ms"),
    ("core.fault.retired_trials", "count"),
    ("core.fault.fallback_rate", "ratio"),
    ("exec.parallelism", "ratio"),
    ("exec.chunk_imbalance", "ratio"),
    ("exec.idle_share", "ratio"),
    // mnsim-core simulate + dse
    ("core.simulate_us", "us"),
    ("core.dse_point_us", "us"),
    ("core.simulate.runs", "count"),
    ("core.dse.points", "count"),
    // mnsim-core cache
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    // mnsim-serve
    ("serve.requests", "count"),
    ("serve.jobs_completed", "count"),
    ("serve.dedup_joined", "count"),
    ("serve.backpressure_rejected", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.events_per_request", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.unattributed_ms", "ms"),
    // mnsim-obs and the residual
    ("obs.trace_overhead", "s"),
    ("obs.trace_dropped", "count"),
    ("unattributed_s", "s"),
    // the run itself
    ("error_rate", "ratio"),
    ("op_samples", "count"),
    ("host_speed", "ratio"),
    ("setup_raw_s", "s"),
    ("op_p10_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("trace_wall_s", "s"),
];

/// Unit of a metric name from either catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}
