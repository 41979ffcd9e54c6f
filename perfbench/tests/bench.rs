//! The benchmark's own checks: deterministic inputs, a metric catalogue
//! in step with `BENCHMARK.json`, and wrong outputs counted as failures.

use mnsim_core::config::Config;
use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::validate::ValidationRow;
use mnsim_core::Simulator;
use mnsim_obs::{parse_json, JsonValue};
use mnsim_perfbench::output::{result_line, LoopCost, Outcome};
use mnsim_perfbench::probe::{self, Probes};
use mnsim_perfbench::serve_mix::{self, CacheTag, Script};
use mnsim_perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use mnsim_perfbench::{compare, faultmc, table2, OpTimes, RunArgs};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(value: &JsonValue, key: &str) -> Vec<(String, String)> {
    value
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn generator_is_deterministic_for_a_seed() {
    assert_eq!(serve_mix::pool(7), serve_mix::pool(7));
    assert_ne!(serve_mix::pool(7), serve_mix::pool(8));
    for client in 0..serve_mix::CLIENTS {
        let draw = |seed| {
            let mut script = Script::new(seed, client);
            (0..2000).map(|_| script.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
    let a = Script::new(7, 0).next_index();
    let pool = serve_mix::pool(7);
    assert!(a < pool.len());
    assert_eq!(pool.iter().filter(|p| p.dse).count(), serve_mix::DSE_POOL);

    let seeds = |seed| format!("{:?}", faultmc::simulator(seed, 2));
    assert_eq!(seeds(5), seeds(5));
    assert_ne!(seeds(5), seeds(6));
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(names_and_units(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // A real (short) traced run prints exactly the per-layer catalogue.
    let args = RunArgs {
        seed: 3,
        seconds: 0.3,
        trace: true,
    };
    let mut outcome = serve_mix::run(&args, 2);
    assert!(outcome.correct(), "serve_mix outputs must be correct");
    for (name, _) in PER_LAYER {
        let reached = name.starts_with("serve.") || name.starts_with("cache.");
        assert!(
            !reached || outcome.metrics.contains_key(name),
            "{name} not measured"
        );
    }
    outcome.fill_unmeasured(true);
    let line = parse_json(&result_line(&outcome, true)).expect("result line parses");
    let printed: Vec<String> = line
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let expected: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(printed, expected);
    let members: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(members, ["correct", "attempted", "failed", "metrics"]);
}

fn golden_rows() -> Vec<ValidationRow> {
    table2::GOLDEN
        .iter()
        .zip(["mW", "mW", "mW", "ns", "%"])
        .map(|(&(metric, mnsim, circuit, _), unit)| ValidationRow {
            metric: metric.into(),
            mnsim,
            circuit,
            unit,
        })
        .collect()
}

#[test]
fn injected_wrong_output_raises_error_rate() {
    // table2_validate: a golden row nudged past the 1e-6 tolerance.
    let rows = golden_rows();
    assert!(table2::rows_correct(table2::GOLDEN_SEED, &rows));
    let mut wrong = rows.clone();
    wrong[3].circuit *= 1.0 + 1e-5;
    assert!(!table2::rows_correct(table2::GOLDEN_SEED, &wrong));
    // Seed-independent rows are checked at every seed.
    assert!(!table2::rows_correct(1, &wrong));

    // faultmc_campaign: any bit of the report differing from the reference.
    let sim = Simulator::new(Config::fully_connected_mlp(&[16, 16]).unwrap()).faults(FaultConfig {
        trials: 2,
        ..FaultConfig::default()
    });
    let report = sim.run().unwrap();
    let reference = faultmc::fingerprint(&report);
    assert!(faultmc::report_correct(Some(&report), &reference));
    let mut tampered = report.clone();
    tampered.faults.as_mut().unwrap().mean_deviation_levels += 1e-12;
    assert!(!faultmc::report_correct(Some(&tampered), &reference));
    assert!(!faultmc::report_correct(None, &reference));

    // serve_mix: a response whose result differs by one byte.
    let good = r#"{"type":"response","id":9,"ok":true,"cache":"hit","fingerprint":"00ff","result":{"report":{"x":1}}}"#;
    assert_eq!(
        serve_mix::parse_response(good, 9),
        (CacheTag::Hit, Some(r#"{"report":{"x":1}}"#))
    );
    let bad = good.replace("\"x\":1", "\"x\":2");
    assert_ne!(
        serve_mix::parse_response(&bad, 9).1,
        Some(r#"{"report":{"x":1}}"#)
    );
    assert_eq!(
        serve_mix::parse_response(good, 10).1,
        None,
        "a reply to another id is wrong"
    );

    // Each wrong output is one failed operation in the printed result.
    let mut outcome = Outcome::default();
    for ok in [true, true, false, true] {
        outcome.tally.record(ok);
    }
    for (name, _) in END_TO_END {
        outcome.set(name, 1.0);
    }
    assert_eq!(outcome.tally.error_rate(), 0.25);
    let line = parse_json(&result_line(&outcome, false)).unwrap();
    assert_eq!(
        line.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(1));
}

#[test]
fn gated_times_are_tenth_percentiles_scaled_by_host_speed() {
    let mut rounds = OpTimes {
        wall_s: (1..=11).rev().map(f64::from).collect(),
        cpu_s: (1..=11).map(|k| 2.0 * f64::from(k)).collect(),
        probes: Probes::default(),
    };
    let cost = LoopCost {
        wall_s: 66.0,
        cpu_s: 132.0,
    };
    let mut outcome = Outcome::default();
    outcome.set_timings(0.5, &rounds, &rounds.wall_s, 11, &cost);
    assert_eq!(outcome.get("host_speed"), 1.0, "unprobed runs are unscaled");
    assert_eq!(outcome.get("op_ref_ms"), 2000.0);
    assert_eq!(outcome.get("cpu_ref_ms"), 4000.0);
    assert_eq!(outcome.get("op_p50_ms"), 6000.0);
    assert_eq!(outcome.get("op_cpu_ms"), 12000.0);

    // A host running the probe at half the reference speed halves them.
    rounds.probes.times_s = vec![2.0 * probe::REFERENCE_S; 20];
    outcome.set_timings(0.5, &rounds, &rounds.wall_s, 11, &cost);
    assert_eq!(outcome.get("host_speed"), 0.5);
    assert_eq!(outcome.get("setup_s"), 0.25);
    assert_eq!(outcome.get("setup_raw_s"), 0.5);
    assert_eq!(outcome.get("op_ref_ms"), 1000.0);
    assert_eq!(outcome.get("op_p10_ms"), 2000.0);
    assert_eq!(outcome.get("cpu_ref_ms"), 2000.0);
}

#[test]
fn comparison_warns_across_machines_and_flags_regressions() {
    let output = |nproc: u32, p50: f64| {
        format!(
            "{{\"env\":{{\"nproc\":\"{nproc}\",\"cpu_model\":\"x\",\"workload\":\"serve_mix\"}}}}\n\
             {{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":\
             {{\"op_ref_ms\":{{\"value\":{p50},\"unit\":\"ms\"}}}}}}\n"
        )
    };
    let parse = |text: String| compare::parse_output(&text).expect("parses");
    let bounds = compare::bounds(
        r#"{"end_to_end":[{"name":"op_ref_ms","unit":"ms","better":"lower","bound":0.25}]}"#,
    );
    let base = parse(output(2, 1.0));

    let (report, regressed) = compare::compare(&base, &parse(output(2, 1.2)), &bounds);
    assert!(!regressed && !report.contains("warning"), "{report}");

    let (report, regressed) = compare::compare(&base, &parse(output(8, 1.2)), &bounds);
    assert!(!regressed);
    assert!(report.contains("warning: outputs come from different machines (nproc: 2 vs 8)"));

    let (report, regressed) = compare::compare(&base, &parse(output(2, 1.3)), &bounds);
    assert!(regressed && report.contains("WORSE"), "{report}");
}
