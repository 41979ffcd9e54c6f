//! The benchmark runner.
//!
//! ```text
//! perfbench --workload <table2_validate|faultmc_campaign|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <output-a> <output-b>
//! ```
//!
//! A run prints an `{"env":…}` line, then one JSON result line with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). Every measured
//! metric is also printed by name and unit on stderr.

use std::process::ExitCode;

use mnsim_perfbench::spec::WORKLOADS;
use mnsim_perfbench::{compare, faultmc, output, serve_mix, table2, RunArgs};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <table2_validate|faultmc_campaign|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench compare <output-a> <output-b>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    let Some((workload, run_args)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match workload.as_str() {
        "table2_validate" => table2::run(&run_args, SETUP_REPS),
        "faultmc_campaign" => faultmc::run(&run_args, SETUP_REPS),
        _ => serve_mix::run(&run_args, SETUP_REPS),
    };
    let mut outcome = outcome;
    if !run_args.trace {
        outcome.set("peak_rss_mb", mnsim_perfbench::env::peak_rss_mb());
    }
    // A layer the workload never reaches reads 0; so does every metric a
    // failed run could not measure.
    if run_args.trace || !outcome.correct() {
        outcome.fill_unmeasured(run_args.trace);
    }
    eprint!("{}", output::table(&outcome));
    println!(
        "{}",
        output::env_line(&workload, run_args.seed, run_args.seconds, run_args.trace)
    );
    println!("{}", output::result_line(&outcome, run_args.trace));
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Option<(String, RunArgs)> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some((
        workload,
        RunArgs {
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
        },
    ))
}

fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_output(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map(|text| compare::bounds(&text))
        .unwrap_or_default();
    let (report, regressed) = compare::compare(&a, &b, &bounds);
    print!("{report}");
    for line in report.lines().filter(|l| l.starts_with("warning:")) {
        eprintln!("{line}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
