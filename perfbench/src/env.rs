//! The run environment recorded with every output, so two outputs from
//! different machines are never compared quietly.

use std::collections::BTreeMap;

/// Environment facts, as printed on the `{"env":…}` line.
pub fn environment() -> BTreeMap<&'static str, String> {
    let mut env = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    env.insert("nproc", nproc.to_string());
    env.insert("cpu_model", cpu_model());
    env.insert("rustc", env!("PERFBENCH_RUSTC").to_string());
    env.insert("profile", env!("PERFBENCH_PROFILE").to_string());
    env.insert("os", std::env::consts::OS.to_string());
    env.insert("arch", std::env::consts::ARCH.to_string());
    env
}

/// The keys whose difference makes two outputs incomparable.
pub const MACHINE_KEYS: [&str; 5] = ["nproc", "cpu_model", "rustc", "profile", "arch"];

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time the process has used so far (every thread, user + system),
/// seconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// The process's resident-memory high-water mark in MB (`VmHWM`), 0
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
